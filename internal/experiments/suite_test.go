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

// TestSuiteKeysOnOptions: a serving run is keyed by its options, its
// machine parameters, its app and its containers per core, so changing
// any of them (Resources overrides Cores; SweepSMT sets Params.SMT;
// Variants sets Kernel.NoPCBitmask; SweepColocation varies the density)
// declares a distinct run, while Jobs, which never changes a result,
// does not.
func TestSuiteKeysOnOptions(t *testing.T) {
	o := Quick()
	mongo := workloads.MongoDB()
	oneCore, wide := o, o
	oneCore.Cores = 1
	wide.Jobs = 4
	smt, noMask := o.Params(BabelFish), o.Params(BabelFish)
	smt.SMT = true
	noMask.Kernel.NoPCBitmask = true
	s := new(Suite)
	c := s.servePaper(o, BabelFish, mongo)
	if s.servePaper(wide, BabelFish, mongo) != c {
		t.Error("Jobs splits a cell")
	}
	for _, split := range []struct {
		field string
		c     *servingCell
	}{
		{"Cores", s.servePaper(oneCore, BabelFish, mongo)},
		{"Params.SMT", s.serve(o, "smt", smt, mongo, paperPerCore)},
		{"Kernel.NoPCBitmask", s.serve(o, "no-mask", noMask, mongo, paperPerCore)},
		{"containers per core", s.serve(o, "dense", o.Params(BabelFish), mongo, 4)},
	} {
		if split.c == c {
			t.Errorf("%s does not split a cell", split.field)
		}
	}
	if n := len(s.serving.runs); n != 5 {
		t.Errorf("declared %d runs, want 5", n)
	}
}

// TestSweepsReadFigure11Runs: the -exp sweeps plan holds 23 cells, and
// the MongoDB runs it shares with Figure 11 (the colocation sweep's
// 2-per-core point, the baseline and ASLR-HW variants, SMT's
// time-multiplexed row) read Figure 11's numbers on one Suite. Short
// phases keep it cheap: the rows are equal at any length.
func TestSweepsReadFigure11Runs(t *testing.T) {
	o := Quick()
	o.WarmInstr, o.MeasureInstr = 20_000, 40_000
	s := new(Suite)
	coloc, _ := s.SweepColocation(o, nil), s.SweepGroupSize(o, nil)
	variants, smt, _ := s.Variants(o), s.SweepSMT(o), s.Churn(o, 4)
	if n := len(s.serving.runs) + len(s.own.runs); n != 23 {
		t.Errorf("the sweeps declare %d cells, want 23", n)
	}
	if testing.Short() {
		t.Skip("experiment runs")
	}
	fig11 := s.Fig11(o)
	if err := s.Run(o.Jobs); err != nil {
		t.Fatal(err)
	}
	f := fig11()
	i := slices.Index(f.ServingApps, "mongodb")
	base, bf := f.ServingMean[i].Base, f.ServingMean[i].Full
	if base <= 0 || bf <= 0 {
		t.Fatalf("Figure 11's MongoDB means are %v / %v", base, bf)
	}
	c, v, m := coloc(), variants(), smt()
	p := slices.Index(c.Points, paperPerCore)
	for _, got := range []struct {
		row      string
		base, bf float64
	}{
		{"colocation 2/core", c.Base[p], c.BF[p]},
		{"variants", v.Rows[0].MeanLat, v.Rows[1].MeanLat},
		{"SMT time-multiplexed", m.BaseTM, m.BFTM},
	} {
		if got.base != base || got.bf != bf {
			t.Errorf("%s reads %v / %v, Figure 11 %v / %v", got.row, got.base, got.bf, base, bf)
		}
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
