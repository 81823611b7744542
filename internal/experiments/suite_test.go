package experiments

import (
	"errors"
	"sync"
	"testing"

	"babelfish/internal/workloads"
)

// TestSuiteSimulatesEachServingCellOnce: a quick-suite regeneration asks
// for 42 serving runs across Figures 10 and 11, §VII-C and the resource
// analysis, of which 20 are distinct; each must be simulated exactly
// once. A fresh Suite simulates them all again: nothing is shared
// process-wide.
func TestSuiteSimulatesEachServingCellOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite")
	}
	for run := 0; run < 2; run++ {
		s := new(Suite)
		if _, err := s.runAll(Quick()); err != nil {
			t.Fatal(err)
		}
		asked, n, distinct := s.asked.Load(), s.simulated.Load(), len(s.cells)
		if asked != 42 || n != 20 || distinct != 20 {
			t.Fatalf("suite %d: asked for %d runs, simulated %d for %d distinct cells; want 42, 20 and 20",
				run, asked, n, distinct)
		}
	}
}

// TestSuiteSectionsMatchStandalone: every section of a shared-suite
// report is byte-identical to the standalone runner's, serially and on a
// worker pool (the Jobs 4 pass has plan workers meet in the memo, for
// the race detector).
func TestSuiteSectionsMatchStandalone(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite")
	}
	for _, jobs := range []int{1, 4} {
		o := Quick()
		o.Jobs = jobs
		rep, err := RunAll(o)
		if err != nil {
			t.Fatal(err)
		}
		fig10, err := Fig10(o)
		if err != nil {
			t.Fatal(err)
		}
		fig11, err := Fig11(o)
		if err != nil {
			t.Fatal(err)
		}
		larger, err := LargerTLB(o)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Resources(o)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name              string
			suite, standalone interface{}
		}{
			{"fig10", rep.Fig10, fig10},
			{"fig11", rep.Fig11, fig11.Summarize()},
			{"tableII", rep.TableII, fig11.AttributionRows()},
			{"largerTLB", rep.LargerTLB, larger},
			{"resources", rep.Resources, res},
		} {
			if a, b := jsonBytes(t, c.suite), jsonBytes(t, c.standalone); string(a) != string(b) {
				t.Errorf("jobs=%d %s: suite section differs from standalone\n  suite:      %s\n  standalone: %s",
					jobs, c.name, a, b)
			}
		}
	}
}

// TestSuiteSharesCellErrors: a serving run that fails is not retried; the
// next figure asking for it gets the same error.
func TestSuiteSharesCellErrors(t *testing.T) {
	o := Quick()
	o.Jobs = 1
	o.MemBytes = 4 << 20 // too small to deploy mongodb
	s := new(Suite)
	_, err10 := s.Fig10(o)
	if err10 == nil {
		t.Fatal("fig10 ran on a machine too small to deploy")
	}
	_, err11 := s.Fig11(o)
	if err11 == nil {
		t.Fatal("fig11 ran on a machine too small to deploy")
	}
	if !errors.Is(err11, errors.Unwrap(err10)) {
		t.Errorf("fig11 error %q does not wrap fig10's cause %q", err11, err10)
	}
	t.Logf("shared error: %v", err11)
	if n := s.simulated.Load(); n != 1 {
		t.Errorf("simulated %d runs, want 1 (the failed cell is shared, not retried)", n)
	}
}

// TestSuiteKeysOnOptions: runs with different Options are distinct
// cells (Resources overrides Cores), while Jobs, which never changes a
// result, does not split a cell.
func TestSuiteKeysOnOptions(t *testing.T) {
	o := Quick()
	o.WarmInstr, o.MeasureInstr = 10_000, 10_000
	oneCore := o
	oneCore.Cores = 1
	wide := o
	wide.Jobs = 4
	s := new(Suite)
	for _, oo := range []Options{o, oneCore, wide} {
		if _, err := s.serving(oo, Baseline, workloads.MongoDB()); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.simulated.Load(); n != 2 {
		t.Errorf("simulated %d runs, want 2 (Cores splits a cell, Jobs does not)", n)
	}
}

// TestSuiteConcurrentAskers: goroutines asking for one cell at once wait
// for a single run and all see its summary.
func TestSuiteConcurrentAskers(t *testing.T) {
	o := Quick()
	o.WarmInstr, o.MeasureInstr = 10_000, 10_000
	s := new(Suite)
	cells := make([]servingCell, 8)
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	for i := range cells {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cells[i], errs[i] = s.serving(o, BabelFish, workloads.MongoDB())
		}(i)
	}
	wg.Wait()
	for i := range cells {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if cells[i] != cells[0] {
			t.Errorf("asker %d saw a different summary", i)
		}
	}
	if n := s.simulated.Load(); n != 1 {
		t.Errorf("simulated %d runs for one cell, want 1", n)
	}
}
