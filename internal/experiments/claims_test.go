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
