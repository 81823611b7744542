package sim

import (
	"reflect"
	"testing"

	"babelfish/internal/kernel"
	"babelfish/internal/obs"
)

func obsMachine(t *testing.T) *Machine {
	t.Helper()
	m := testMachine(t, kernel.ModeBabelFish, 2)
	g := m.Kernel.NewGroup("app", 2)
	p1, gvas := setupProc(t, m, g, 32)
	p2, _ := setupProc(t, m, g, 32)
	m.AddTask(0, p1, &seqGen{proc: p1, gvas: gvas, limit: 4000})
	m.AddTask(1, p2, &seqGen{proc: p2, gvas: gvas, limit: 4000})
	return m
}

func TestMachineObsSpans(t *testing.T) {
	m := obsMachine(t)
	rec := obs.NewRecorder(42, 0, 4096)
	m.EnableObs(rec, 3)
	if err := m.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	spans := rec.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	quanta := map[obs.SpanID]bool{}
	var nq, nf int
	for _, s := range spans {
		if s.Node != 3 {
			t.Fatalf("span not labelled with the node ID: %+v", s)
		}
		switch s.Kind {
		case obs.KQuantum:
			nq++
			quanta[s.ID] = true
			if s.Core < 0 || s.PID < 0 || s.Dur == 0 {
				t.Fatalf("malformed quantum span: %+v", s)
			}
		case obs.KFault:
			nf++
		}
	}
	if nq == 0 || nf == 0 {
		t.Fatalf("quanta=%d faults=%d, want both (demand paging must fault)", nq, nf)
	}
	// Every fault span must parent to a quantum span (its quantum's ID is
	// pre-minted, so the parent exists even though the quantum span is
	// recorded after its children).
	for _, s := range spans {
		if s.Kind == obs.KFault && !quanta[s.Parent] {
			t.Fatalf("fault span not parented to a quantum: %+v", s)
		}
	}
	st := m.ObsStream("m0")
	if st.Name != "m0" || len(st.Spans) != len(spans) {
		t.Fatalf("ObsStream mismatch: %d vs %d spans", len(st.Spans), len(spans))
	}
}

// TestMachineObsDeterministic: two identically-configured machines with
// identically-seeded recorders must record identical span lists —
// the property the cross-jobs byte-identity of exports rests on.
func TestMachineObsDeterministic(t *testing.T) {
	run := func() []obs.Span {
		m := obsMachine(t)
		rec := obs.NewRecorder(7, 1, 4096)
		m.EnableObs(rec, 1)
		if err := m.RunToCompletion(); err != nil {
			t.Fatal(err)
		}
		return rec.Spans()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("span streams diverged: %d vs %d spans", len(a), len(b))
	}
}

// TestMachineObsOffIsUntouched: with no recorder the machine must not
// allocate span state, and results must match a traced twin (tracing
// changes observation, never simulation).
func TestMachineObsOffIsUntouched(t *testing.T) {
	plain := obsMachine(t)
	if err := plain.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	traced := obsMachine(t)
	traced.EnableObs(obs.NewRecorder(1, 0, 64), -1)
	if err := traced.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	if plain.ObsRecorder() != nil {
		t.Fatal("recorder appeared unasked")
	}
	ap, at := plain.Aggregate(), traced.Aggregate()
	if ap != at {
		t.Fatalf("observation changed simulation:\nplain  %+v\ntraced %+v", ap, at)
	}
	if st := plain.ObsStream("x"); len(st.Spans) != 0 {
		t.Fatalf("disabled machine exported data: %+v", st)
	}
}
