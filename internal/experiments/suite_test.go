package experiments

import (
	"slices"
	"strings"
	"testing"

	"babelfish/internal/obs"
	"babelfish/internal/workloads"
)

// TestSuiteSimulatesEachServingCellOnce: a quick-suite regeneration
// reads 42 serving runs across Figures 10 and 11, §VII-C and the
// resource analysis, of which 20 are distinct; its plan holds each once,
// next to the 18 cells only one figure reads. A fresh Suite declares
// them all again: nothing is shared process-wide.
func TestSuiteSimulatesEachServingCellOnce(t *testing.T) {
	for run := 0; run < 2; run++ {
		s := new(Suite)
		s.Report(Quick())
		if serving, all := len(s.serving.runs), len(s.serving.runs)+len(s.own.runs); serving != 20 || all != 38 {
			t.Fatalf("suite %d: plan holds %d serving runs in %d cells; want 20 in 38", run, serving, all)
		}
	}
}

// TestSuiteRunsServingCellsFirst: Run starts every serving run before
// any figure-only cell, whatever order the figures were declared in.
func TestSuiteRunsServingCellsFirst(t *testing.T) {
	o := Quick()
	o.WarmInstr, o.MeasureInstr = 10_000, 10_000
	rec := obs.NewRecorder(o.Seed, obs.ControlScope, obs.DefaultDepth)
	s := &Suite{Recorder: rec}
	s.Fig7(o)
	s.Bringup(o)
	s.Resources(o)
	if err := s.Run(1); err != nil {
		t.Fatal(err)
	}
	var labels []string
	for _, sp := range rec.Spans() {
		labels = append(labels, sp.Name)
	}
	want := []string{
		"serving/mongodb/Baseline/2-core", "serving/mongodb/BabelFish/2-core",
		"fig7/Baseline", "fig7/BabelFish", "bringup/Baseline", "bringup/BabelFish",
	}
	if !slices.Equal(labels, want) {
		t.Errorf("cells ran in order %q, want %q", labels, want)
	}
}

// TestSuiteSharesCellErrors: a serving run that several figures read
// fails the plan once, under its own label, at any pool width.
func TestSuiteSharesCellErrors(t *testing.T) {
	o := Quick()
	o.MemBytes = 4 << 20 // too small to deploy mongodb
	const label = "serving/mongodb/Baseline/2-core"
	for _, jobs := range []int{1, 4} {
		s := new(Suite)
		s.Fig10(o)
		s.Fig11(o)
		s.LargerTLB(o)
		err := s.Run(jobs)
		if err == nil {
			t.Fatal("the plan ran on a machine too small to deploy")
		}
		if msg := err.Error(); !strings.HasPrefix(msg, label+": ") || strings.Count(msg, label) != 1 {
			t.Errorf("jobs=%d: error %q does not name %s once", jobs, msg, label)
		}
	}
}

// TestSuiteKeysOnOptions: runs with different Options are distinct
// cells (Resources overrides Cores), while Jobs, which never changes a
// result, does not split a cell.
func TestSuiteKeysOnOptions(t *testing.T) {
	o := Quick()
	oneCore := o
	oneCore.Cores = 1
	wide := o
	wide.Jobs = 4
	s := new(Suite)
	c, one, w := s.serve(o, Baseline, workloads.MongoDB()), s.serve(oneCore, Baseline, workloads.MongoDB()),
		s.serve(wide, Baseline, workloads.MongoDB())
	if n := len(s.serving.runs); n != 2 || c != w || c == one {
		t.Errorf("declared %d runs, want 2 (Cores splits a cell, Jobs does not)", n)
	}
}

// TestSuiteSectionsMatchStandalone: every section of a shared-suite
// report is byte-identical to the standalone runner's, serially and on a
// worker pool (the Jobs 4 pass runs the shared plan's cells side by side,
// for the race detector).
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
