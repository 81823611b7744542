package experiments

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"babelfish/internal/container"
	"babelfish/internal/memdefs"
)

// TestQuickSuite runs every experiment at reduced scale and checks the
// directional results that define the paper's findings. The six
// simulated figures are declared on one Suite, so the serving runs they
// share are simulated once.
func TestQuickSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite")
	}
	o := Quick()
	var s Suite
	fig9, fig10, fig11 := s.Fig9(o), s.Fig10(o), s.Fig11(o)
	bringup, resources, largerTLB := s.Bringup(o), s.Resources(o), s.LargerTLB(o)
	if err := s.Run(o.Jobs); err != nil {
		t.Fatal(err)
	}

	t.Run("fig9", func(t *testing.T) {
		r := fig9()
		if len(r.Rows) != 6 {
			t.Fatalf("rows = %d", len(r.Rows))
		}
		if r.ContainerShareablePct <= 10 || r.ContainerShareablePct > 95 {
			t.Errorf("container shareable %.1f%% implausible", r.ContainerShareablePct)
		}
		// Functions share more than containerized apps, and BabelFish
		// removes a substantial fraction of their active entries.
		if r.FunctionShareablePct <= r.ContainerShareablePct {
			t.Errorf("functions (%.1f%%) not more shareable than containers (%.1f%%)",
				r.FunctionShareablePct, r.ContainerShareablePct)
		}
		if r.FunctionActiveRed < 30 {
			t.Errorf("function active reduction %.1f%% too low", r.FunctionActiveRed)
		}
		for _, row := range r.Rows {
			if row.BabelFishActive > row.Active {
				t.Errorf("%s: fused active %d exceeds active %d", row.App, row.BabelFishActive, row.Active)
			}
		}
		if !strings.Contains(r.String(), "Figure 9") {
			t.Error("missing table title")
		}
	})

	t.Run("fig10", func(t *testing.T) {
		r := fig10()
		for _, row := range r.Rows {
			if row.RedMPKIDPct <= 0 {
				t.Errorf("%s: no data MPKI reduction (%.1f%%)", row.App, row.RedMPKIDPct)
			}
			if row.SharedHitD < 0 || row.SharedHitD > 1 || row.SharedHitI < 0 || row.SharedHitI > 1 {
				t.Errorf("%s: shared-hit fractions out of range", row.App)
			}
		}
		if len(r.ClassAverages()) == 0 {
			t.Error("no class averages")
		}
	})

	t.Run("fig11-tableII", func(t *testing.T) {
		r := fig11()
		if r.MeanServingReduction() <= 0 {
			t.Errorf("serving mean reduction %.1f%% not positive", r.MeanServingReduction())
		}
		if r.SparseReduction() <= r.DenseReduction() {
			t.Errorf("sparse (%.1f%%) not above dense (%.1f%%) — the paper's key FaaS result",
				r.SparseReduction(), r.DenseReduction())
		}
		tII := TableII(r)
		for _, tr := range r.ServingMean {
			f := tr.tlbFraction()
			if f < 0 || f > 1 {
				t.Errorf("tlb fraction %v out of [0,1]", f)
			}
		}
		if !strings.Contains(tII.String(), "Table II") {
			t.Error("missing Table II title")
		}
	})

	t.Run("bringup", func(t *testing.T) {
		r := bringup()
		if r.ReductionPct <= 0 {
			t.Errorf("bring-up reduction %.1f%% not positive", r.ReductionPct)
		}
		if r.BFCycles.Touch >= r.BaseCycles.Touch {
			t.Error("BabelFish page-touch phase not faster")
		}
		// The engine share is docker start's one fixed cost, and the
		// total is exactly the sum of its three phases.
		for arch, c := range map[string]struct {
			Engine, Fork, Touch, Total memdefs.Cycles
		}{"baseline": r.BaseCycles, "babelfish": r.BFCycles} {
			if c.Engine != container.EngineCost {
				t.Errorf("%s engine %d, want container.EngineCost %d", arch, c.Engine, container.EngineCost)
			}
			if c.Total != c.Engine+c.Fork+c.Touch {
				t.Errorf("%s total %d != engine %d + fork %d + touch %d", arch, c.Total, c.Engine, c.Fork, c.Touch)
			}
		}
	})

	t.Run("tableIII-resources", func(t *testing.T) {
		tb := TableIII()
		if tb.BF.AreaMM2 <= tb.Base.AreaMM2 {
			t.Error("BabelFish TLB not larger")
		}
		res := resources()
		if res.TotalPct < 0.2 || res.TotalPct > 0.3 {
			t.Errorf("space overhead %.3f%% out of paper band (~0.238%%)", res.TotalPct)
		}
		if res.MeasuredMaskPages <= 0 {
			t.Error("no MaskPages measured on a live run")
		}
	})

	t.Run("largertlb", func(t *testing.T) {
		r := largerTLB()
		var larger, bf float64
		for i := range r.Apps {
			larger += r.LargerRed[i]
			bf += r.BabelFishRed[i]
		}
		if bf <= larger {
			t.Errorf("BabelFish (%.1f%%) does not beat the larger TLB (%.1f%%) on average", bf, larger)
		}
	})

	t.Run("tableI", func(t *testing.T) {
		out := TableI(o).String()
		for _, want := range []string{"1536 entries", "page walk cache", "CCID"} {
			if !strings.Contains(out, want) {
				t.Errorf("Table I missing %q", want)
			}
		}
	})
}

// TestTableIPrintsSubMBCachesInKB: the quick L3 is 512 KB, which Table I
// must not print as 0MB.
func TestTableIPrintsSubMBCachesInKB(t *testing.T) {
	if out := TableI(Quick()).String(); !strings.Contains(out, "L3 cache") || !strings.Contains(out, "512KB") {
		t.Errorf("Table I at Quick() does not print the L3 as 512KB:\n%s", out)
	}
}

// TestFullScale reruns everything at full scale; enable with
// BFBENCH_FULL=1 (it takes about a minute).
func TestFullScale(t *testing.T) {
	if os.Getenv("BFBENCH_FULL") == "" {
		t.Skip("set BFBENCH_FULL=1 for the full-scale run")
	}
	rep, err := RunAll(Default())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := rep.WriteMarkdown(&b); err != nil {
		t.Fatal(err)
	}
	t.Log(b.String())
}

// TestFig7Timeline asserts the paper's Figure 7 example structurally:
// conventional = three full walks with three minor faults; BabelFish =
// A pays the full walk+fault, B walks without faulting (shared page
// tables), C hits the TLB entry A brought in.
func TestFig7Timeline(t *testing.T) {
	r, err := Fig7(Quick())
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range r.Conventional {
		if s.Level != "walk" || s.Faults != 1 {
			t.Errorf("conventional step %d: level=%s faults=%d", i, s.Level, s.Faults)
		}
	}
	a, b, c := r.BabelFish[0], r.BabelFish[1], r.BabelFish[2]
	if a.Level != "walk" || a.Faults != 1 {
		t.Errorf("A: level=%s faults=%d", a.Level, a.Faults)
	}
	if b.Level != "walk" || b.Faults != 0 {
		t.Errorf("B should walk faultlessly: level=%s faults=%d", b.Level, b.Faults)
	}
	if c.Level != "L2" || c.Faults != 0 {
		t.Errorf("C should hit the L2 TLB: level=%s faults=%d", c.Level, c.Faults)
	}
	if !(c.Cycles < b.Cycles && b.Cycles < a.Cycles) {
		t.Errorf("cycle ordering wrong: A=%d B=%d C=%d", a.Cycles, b.Cycles, c.Cycles)
	}
	// The telemetry diff captures the same story at the counter level:
	// three minor faults conventionally, one under BabelFish.
	if r.Delta == nil {
		t.Fatal("no telemetry delta")
	}
	row, ok := r.Delta.Row("kernel.minor_faults")
	if !ok || row.A != 3 || row.B != 1 {
		t.Errorf("minor-fault delta: %+v (ok=%v)", row, ok)
	}
	if _, ok := r.Delta.Row("mmu.faults"); !ok {
		t.Error("mmu.faults missing from delta")
	}
}

// TestReportJSON runs the full pipeline at quick scale and checks the
// JSON export round-trips.
func TestReportJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline")
	}
	rep, err := RunAll(Quick())
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"fig9", "fig10", "fig11", "tableIII", "bringup", "tlbFraction"} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON missing %q", want)
		}
	}
	var back Report
	if err := json.Unmarshal([]byte(out), &back); err != nil {
		t.Fatalf("JSON does not parse back: %v", err)
	}
	if back.Fig9 == nil || back.Fig11 == nil || len(back.TableII) == 0 {
		t.Fatal("round-trip lost sections")
	}
}

// TestReportMarkdown checks the markdown renderer.
func TestReportMarkdown(t *testing.T) {
	rep := &Report{
		Options: Quick(),
		Fig9: &Fig9Result{Rows: []Fig9Row{{App: "mongodb", Total: 10, TotalShareable: 6,
			ShareablePct: 60}}, ContainerShareablePct: 60, FunctionShareablePct: 90},
		Fig11:   &Fig11Summary{MeanServing: 8, TailServing: 9, Compute: 7, Dense: 14, Sparse: 44},
		TableII: []TableIIRow{{"mongodb", 0.2}},
		Bringup: &BringupResult{ReductionPct: 7.7},
	}
	var b strings.Builder
	if err := rep.WriteMarkdown(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Figure 9", "mongodb", "Figure 11", "Table II", "7.7%"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
}

// TestChurn checks the serverless-churn experiment's directional claims:
// BabelFish cuts the waves' execution cycles and their page faults.
func TestChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("churn run")
	}
	r, err := Churn(Quick(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.RedPct <= 0 {
		t.Errorf("churn exec reduction %.1f%% not positive", r.RedPct)
	}
	if r.BFFaults >= r.BaseFaults {
		t.Errorf("churn faults not reduced: %d vs %d", r.BFFaults, r.BaseFaults)
	}
	if !strings.Contains(r.String(), "churn") {
		t.Error("missing title")
	}
}

// TestSweepsAndVariants smoke-checks the sensitivity runners.
func TestSweepsAndVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep runs")
	}
	o := Quick()
	col, err := SweepColocation(o, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	// Higher density must benefit more than no co-location.
	if !(col.RedPct[1] > col.RedPct[0]) {
		t.Errorf("density sweep not increasing: %v", col.RedPct)
	}
	gs, err := SweepGroupSize(o, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !(gs.RedPct[1] > gs.RedPct[0]) {
		t.Errorf("group-size sweep not increasing: %v", gs.RedPct)
	}
	v, err := Variants(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Rows) != 5 {
		t.Fatalf("variants = %d", len(v.Rows))
	}
	smt, err := SweepSMT(o)
	if err != nil {
		t.Fatal(err)
	}
	if smt.RedTMPct <= 0 || smt.RedSMTPct <= 0 {
		t.Errorf("SMT sweep reductions not positive: %+v", smt)
	}
}

// TestOptionsParams checks the architecture parameterization matrix.
func TestOptionsParams(t *testing.T) {
	o := Quick()
	base := o.Params(Baseline)
	if base.MMU.Policy.OPC() || base.MMU.LargerL2 {
		t.Fatal("baseline misconfigured")
	}
	big := o.Params(BaselineLargerTLB)
	if !big.MMU.LargerL2 || big.MMU.Policy.OPC() {
		t.Fatal("larger-TLB misconfigured")
	}
	bf := o.Params(BabelFish)
	if !bf.MMU.Policy.OPC() || !bf.MMU.ASLRHW {
		t.Fatal("babelfish misconfigured")
	}
	pt := o.Params(BabelFishPT)
	if pt.MMU.Policy.OPC() || pt.Kernel.Mode.String() != "BabelFish" {
		t.Fatal("PT-only misconfigured")
	}
	if bf.L3.SizeBytes != o.L3Bytes {
		t.Fatalf("L3 override not applied: %d", bf.L3.SizeBytes)
	}
	for _, a := range []Arch{Baseline, BabelFish, BabelFishPT, BaselineLargerTLB} {
		if a.String() == "" {
			t.Fatal("empty arch name")
		}
	}
}
