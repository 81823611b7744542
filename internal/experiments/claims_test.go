package experiments

import (
	"encoding/json"
	"os"
	"testing"
)

// claimGoldens are the pinned suite reports the claim tests read: the
// quick suite and the full-scale one (bfbench -format json at default
// options).
var claimGoldens = []string{
	"../../testdata/arch_identity_golden.json",
	"../../testdata/full_suite_golden.json",
}

// goldenReport decodes the pinned suite report at path.
func goldenReport(t *testing.T, path string) *Report {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatal(err)
	}
	return &r
}

// TestClaimLargerTLBNeverBeatsBabelFish pins §VII-C on both goldens: for
// every app, growing the conventional L2 TLB reduces latency or
// execution time by less than BabelFish does. The closest app is fio at
// quick scale, where the larger TLB is slightly slower than the baseline.
func TestClaimLargerTLBNeverBeatsBabelFish(t *testing.T) {
	for _, path := range claimGoldens {
		r := goldenReport(t, path).LargerTLB
		if r == nil || len(r.Apps) != 5 || len(r.LargerRed) != 5 || len(r.BabelFishRed) != 5 {
			t.Fatalf("%s: §VII-C section is not five apps: %+v", path, r)
		}
		for i, app := range r.Apps {
			if r.LargerRed[i] >= r.BabelFishRed[i] {
				t.Errorf("%s: %s: larger TLB reduces by %.2f%%, BabelFish by %.2f%%", path, app, r.LargerRed[i], r.BabelFishRed[i])
			}
		}
	}
}

// TestClaimSharedHitsInstrAboveData pins Figure 10b on both goldens: in
// every row, a larger fraction of BabelFish's L2 TLB instruction hits
// than of its data hits land on entries another process brought in. The
// closest row is full-scale fio (0.517 against 0.181).
func TestClaimSharedHitsInstrAboveData(t *testing.T) {
	for _, path := range claimGoldens {
		r := goldenReport(t, path).Fig10
		if r == nil || len(r.Rows) != 6 {
			t.Fatalf("%s: Figure 10 section is not six rows: %+v", path, r)
		}
		for _, row := range r.Rows {
			if row.SharedHitI <= row.SharedHitD {
				t.Errorf("%s: %s: shared hit fraction I %.3f, D %.3f", path, row.App, row.SharedHitI, row.SharedHitD)
			}
		}
	}
}

// TestClaimSparseFunctionsGainMore pins Figure 11's FaaS crossover on
// both goldens: BabelFish's execution-time reduction for sparse function
// invocations is at least twice the dense one, overall (quick 38.2
// against 11.6, full 43.8 against 14.6) and for each function.
func TestClaimSparseFunctionsGainMore(t *testing.T) {
	for _, path := range claimGoldens {
		r := goldenReport(t, path).Fig11
		if r == nil || len(r.DenseRedPct) != 3 || len(r.SparseRedPct) != 3 {
			t.Fatalf("%s: Figure 11 section is not three functions: %+v", path, r)
		}
		if r.Dense <= 0 || r.Sparse < 2*r.Dense {
			t.Errorf("%s: overall sparse %.2f%%, dense %.2f%%", path, r.Sparse, r.Dense)
		}
		for fn, dense := range r.DenseRedPct {
			sparse, ok := r.SparseRedPct[fn]
			if !ok || dense <= 0 || sparse < 2*dense {
				t.Errorf("%s: %s: sparse %.2f%% (present %v), dense %.2f%%", path, fn, sparse, ok, dense)
			}
		}
	}
}

// TestClaimMPKIReducedExceptGraphChi pins Figure 10a on both goldens:
// BabelFish lowers both data and instruction L2 TLB MPKI in every row but
// GraphChi's. GraphChi's data MPKI stays flat within ±1% (quick +0.20,
// full −0.75), because its gain is not TLB-driven, and its instruction
// MPKI still falls.
func TestClaimMPKIReducedExceptGraphChi(t *testing.T) {
	for _, path := range claimGoldens {
		r := goldenReport(t, path).Fig10
		if r == nil || len(r.Rows) != 6 {
			t.Fatalf("%s: Figure 10 section is not six rows: %+v", path, r)
		}
		for _, row := range r.Rows {
			d, i := row.RedMPKIDPct, row.RedMPKIIPct
			if row.App == "graphchi" {
				if d < -1 || d > 1 || i <= 0 {
					t.Errorf("%s: graphchi: D reduction %.2f%% (want within ±1%%), I %.2f%% (want > 0)", path, d, i)
				}
				continue
			}
			if d <= 0 || i <= 0 {
				t.Errorf("%s: %s: D reduction %.2f%%, I %.2f%%; want both > 0", path, row.App, d, i)
			}
		}
	}
}

// TestClaimTableIIICostlierOnEveryAxis pins Table III on both goldens:
// the baseline L2 TLB row is the surrogate's calibration point, the
// paper's 0.030 mm² / 327 ps / 10.22 pJ / 4.16 mW exactly, and BabelFish's
// wider tags cost more on all four columns.
func TestClaimTableIIICostlierOnEveryAxis(t *testing.T) {
	for _, path := range claimGoldens {
		r := goldenReport(t, path).TableIII
		if r == nil {
			t.Fatalf("%s: no Table III section", path)
		}
		b, bf := r.Base, r.BF
		if b.AreaMM2 != 0.030 || b.AccessPS != 327 || b.DynEnergy != 10.22 || b.LeakageMW != 4.16 {
			t.Errorf("%s: baseline row %+v is not the calibration point 0.030/327/10.22/4.16", path, b)
		}
		if bf.AreaMM2 <= b.AreaMM2 || bf.AccessPS <= b.AccessPS || bf.DynEnergy <= b.DynEnergy || bf.LeakageMW <= b.LeakageMW {
			t.Errorf("%s: BabelFish row %+v is not above baseline %+v on every column", path, bf, b)
		}
	}
}

// TestClaimBringupNearPaper pins the bring-up result on both goldens:
// BabelFish shortens container bring-up by 5–11%, a band around the
// paper's 8% (quick 7.74, full 7.72); the Docker engine's fixed cost
// bounds it from above.
func TestClaimBringupNearPaper(t *testing.T) {
	for _, path := range claimGoldens {
		r := goldenReport(t, path).Bringup
		if r == nil {
			t.Fatalf("%s: no bring-up section", path)
		}
		if r.ReductionPct < 5 || r.ReductionPct > 11 {
			t.Errorf("%s: bring-up reduction %.2f%%, want within 5–11%% (paper 8%%)", path, r.ReductionPct)
		}
	}
}

// TestClaimFig7TimelineExact pins Figure 7 on both goldens, cycle for
// cycle. Conventionally A (core 0), B (core 1) and C (core 0) each walk
// and fault. Under BabelFish only A faults, B's walk finds A's entry in
// the shared PTE table without a fault, and C hits the L2 TLB entry A
// brought in.
func TestClaimFig7TimelineExact(t *testing.T) {
	conventional := [3]Fig7Step{
		{Container: "A", Core: 0, Level: "walk", Faults: 1, WalkMem: 5, Cycles: 1864},
		{Container: "B", Core: 1, Level: "walk", Faults: 1, WalkMem: 5, Cycles: 1804},
		{Container: "C", Core: 0, Level: "walk", Faults: 1, WalkMem: 5, Cycles: 1804},
	}
	babelFish := [3]Fig7Step{
		{Container: "A", Core: 0, Level: "walk", Faults: 1, WalkMem: 5, Cycles: 1868},
		{Container: "B", Core: 1, Level: "walk", Faults: 0, WalkMem: 4, Cycles: 416},
		{Container: "C", Core: 0, Level: "L2", Faults: 0, WalkMem: 0, Cycles: 13},
	}
	for _, path := range claimGoldens {
		r := goldenReport(t, path).Fig7
		if r == nil {
			t.Fatalf("%s: no Figure 7 section", path)
		}
		for i := range conventional {
			if r.Conventional[i] != conventional[i] {
				t.Errorf("%s: conventional step %d is %+v, want %+v", path, i, r.Conventional[i], conventional[i])
			}
			if r.BabelFish[i] != babelFish[i] {
				t.Errorf("%s: BabelFish step %d is %+v, want %+v", path, i, r.BabelFish[i], babelFish[i])
			}
		}
	}
}

// TestClaimFig9Shareability pins Figure 9 on both goldens: the average
// share of shareable pte_ts over the containerised apps lies within a band
// of five points around the paper's 53% (quick 56.7, full 52.5), GraphChi
// shares the least of every row (quick 14.3, full 7.5), and the functions
// share more than the container average (quick 90.5, full 87.8).
func TestClaimFig9Shareability(t *testing.T) {
	const paperContainerPct, band = 53.0, 5.0
	for _, path := range claimGoldens {
		r := goldenReport(t, path).Fig9
		if r == nil || len(r.Rows) != 6 {
			t.Fatalf("%s: Figure 9 section is not six rows: %+v", path, r)
		}
		if avg := r.ContainerShareablePct; avg < paperContainerPct-band || avg > paperContainerPct+band {
			t.Errorf("%s: container shareable average %.1f%%, want within %.0f±%.0f%%", path, avg, paperContainerPct, band)
		}
		lowest := r.Rows[0]
		for _, row := range r.Rows[1:] {
			if row.ShareablePct < lowest.ShareablePct {
				lowest = row
			}
		}
		if lowest.App != "graphchi" {
			t.Errorf("%s: %s shares least (%.1f%%), want graphchi", path, lowest.App, lowest.ShareablePct)
		}
		if r.FunctionShareablePct <= r.ContainerShareablePct {
			t.Errorf("%s: functions share %.1f%%, not above the container average %.1f%%", path, r.FunctionShareablePct, r.ContainerShareablePct)
		}
	}
}

// The tests below pin known gaps to the paper (EXPERIMENTS.md, "Known
// deviations and why"), so that a model change that closes or widens one
// shows up as a failing test. A model improvement that moves one of them
// should change the test and EXPERIMENTS.md together.

// TestDeviationServingTailAboveMean pins Figure 11's serving tail ≥ mean
// where it holds, at full scale, overall (9.09 against 7.92) and for each
// app (closest: mongodb, 3.43 against 3.42). At quick scale it does not
// hold (tail 2.25 against mean 5.01). A model improvement that moves
// either case should change this test and EXPERIMENTS.md together.
func TestDeviationServingTailAboveMean(t *testing.T) {
	full := goldenReport(t, claimGoldens[1]).Fig11
	if full == nil || len(full.ServingMeanRedPct) != 3 {
		t.Fatalf("full golden: Figure 11 section is not three serving apps: %+v", full)
	}
	if full.TailServing < full.MeanServing {
		t.Errorf("full: serving tail reduction %.2f%% below mean %.2f%%", full.TailServing, full.MeanServing)
	}
	for app, mean := range full.ServingMeanRedPct {
		if tail, ok := full.ServingTailRedPct[app]; !ok || tail < mean {
			t.Errorf("full: %s: tail reduction %.2f%% (present %v) below mean %.2f%%", app, tail, ok, mean)
		}
	}
	quick := goldenReport(t, claimGoldens[0]).Fig11
	if quick == nil {
		t.Fatal("quick golden: no Figure 11 section")
	}
	if quick.TailServing >= quick.MeanServing {
		t.Errorf("quick: serving tail %.2f%% ≥ mean %.2f%%: the known deviation is gone; update this test and EXPERIMENTS.md",
			quick.TailServing, quick.MeanServing)
	}
}

// TestDeviationTableIIServingTLBShare pins Table II's known gap: the
// share of MongoDB's and HTTPd's gain due to L2 TLB effects stays below
// 0.5 at both scales (quick 0.16/0.07, full 0.18/0.15) against the
// paper's ~0.8, because the page-table-only ablation captures walk
// savings that dominate in this model. A model improvement that lifts
// either above 0.5 should change this test and EXPERIMENTS.md together.
func TestDeviationTableIIServingTLBShare(t *testing.T) {
	for _, path := range claimGoldens {
		want := map[string]bool{"mongodb": true, "httpd": true}
		for _, row := range goldenReport(t, path).TableII {
			if !want[row.Workload] {
				continue
			}
			delete(want, row.Workload)
			if row.TLBFraction >= 0.5 {
				t.Errorf("%s: %s: TLB fraction %.2f ≥ 0.5: the known deviation is gone; update this test and EXPERIMENTS.md",
					path, row.Workload, row.TLBFraction)
			}
		}
		if len(want) != 0 {
			t.Errorf("%s: Table II rows missing: %v", path, want)
		}
	}
}
