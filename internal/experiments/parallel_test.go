package experiments

import (
	"encoding/json"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
)

// TestPlanExecuteWidths: the same plan must produce the same result slots
// at every worker-pool width.
func TestPlanExecuteWidths(t *testing.T) {
	for _, jobs := range []int{0, 1, 2, 8} {
		var p plan
		out := make([]int, 10)
		for i := 0; i < 10; i++ {
			i := i
			p.add("cell", func() error {
				out[i] = i * i
				return nil
			})
		}
		if err := p.execute(jobs, nil); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("jobs=%d: slot %d = %d", jobs, i, v)
			}
		}
	}
}

// TestPlanErrorDeterministic: with several failing cells, the reported
// error must be the lowest-indexed one, wrapped with its label, at any
// pool width.
func TestPlanErrorDeterministic(t *testing.T) {
	errA := errors.New("a failed")
	errB := errors.New("b failed")
	for _, jobs := range []int{1, 4} {
		var p plan
		p.add("ok", func() error { return nil })
		p.add("first-bad", func() error { return errA })
		p.add("second-bad", func() error { return errB })
		err := p.execute(jobs, nil)
		if !errors.Is(err, errA) {
			t.Fatalf("jobs=%d: got %v, want wrapped %v", jobs, err, errA)
		}
		if got := err.Error(); got != "first-bad: a failed" {
			t.Fatalf("jobs=%d: error text %q", jobs, got)
		}
	}
}

// TestPlanSerialEarlyAbort: the serial path must stop at the first
// failing cell instead of running the rest.
func TestPlanSerialEarlyAbort(t *testing.T) {
	var ran atomic.Int32
	var p plan
	p.add("bad", func() error { return errors.New("boom") })
	p.add("after", func() error { ran.Add(1); return nil })
	if err := p.execute(1, nil); err == nil {
		t.Fatal("no error")
	}
	if ran.Load() != 0 {
		t.Fatal("serial execute ran cells past the failure")
	}
}

// jsonBytes marshals v for byte-level comparison of experiment results.
func jsonBytes(t *testing.T, v interface{}) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestParallelEquality is the engine's core promise: a parallel run is
// byte-identical to a serial run. Figure 7 exercises the telemetry
// snapshot/diff path; the colocation sweep exercises multi-cell rows;
// fig11 covers the FaaS fork/teardown paths, which once diverged run to
// run because kernel fork/teardown iterated Go maps and so allocated
// frames in nondeterministic order (fixed by sorted iteration).
func TestParallelEquality(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs")
	}
	serial := Quick()
	serial.Jobs = 1
	par := Quick()
	par.Jobs = 4

	t.Run("fig7", func(t *testing.T) {
		a, err := Fig7(serial)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Fig7(par)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("fig7 serial != jobs=4:\n  serial: %+v\n  jobs=4: %+v", a, b)
		}
		if ja, jb := jsonBytes(t, a), jsonBytes(t, b); string(ja) != string(jb) {
			t.Errorf("fig7 JSON diverges:\n  serial: %s\n  jobs=4: %s", ja, jb)
		}
	})

	t.Run("fig11", func(t *testing.T) {
		a, err := Fig11(serial)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Fig11(par)
		if err != nil {
			t.Fatal(err)
		}
		if ja, jb := jsonBytes(t, a), jsonBytes(t, b); string(ja) != string(jb) {
			t.Errorf("fig11 JSON diverges:\n  serial: %s\n  jobs=4: %s", ja, jb)
		}
	})

	t.Run("colocation", func(t *testing.T) {
		a, err := SweepColocation(serial, []int{1, 3})
		if err != nil {
			t.Fatal(err)
		}
		b, err := SweepColocation(par, []int{1, 3})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("colocation serial != jobs=4:\n  serial: %+v\n  jobs=4: %+v", a, b)
		}
		if ja, jb := jsonBytes(t, a), jsonBytes(t, b); string(ja) != string(jb) {
			t.Errorf("colocation JSON diverges:\n  serial: %s\n  jobs=4: %s", ja, jb)
		}
	})
}
