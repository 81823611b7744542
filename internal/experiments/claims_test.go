package experiments

import (
	"encoding/json"
	"os"
	"testing"
)

// goldenReport decodes the pinned quick-suite report.
func goldenReport(t *testing.T) *Report {
	t.Helper()
	b, err := os.ReadFile("../../testdata/arch_identity_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatal(err)
	}
	return &r
}

// TestClaimLargerTLBNeverBeatsBabelFish pins §VII-C on the golden quick
// suite: for every app, growing the conventional L2 TLB reduces latency
// or execution time by less than BabelFish does. The closest app is fio,
// where the larger TLB is slightly slower than the baseline.
func TestClaimLargerTLBNeverBeatsBabelFish(t *testing.T) {
	r := goldenReport(t).LargerTLB
	if r == nil || len(r.Apps) != 5 || len(r.LargerRed) != 5 || len(r.BabelFishRed) != 5 {
		t.Fatalf("golden §VII-C section is not five apps: %+v", r)
	}
	for i, app := range r.Apps {
		if r.LargerRed[i] >= r.BabelFishRed[i] {
			t.Errorf("%s: larger TLB reduces by %.2f%%, BabelFish by %.2f%%", app, r.LargerRed[i], r.BabelFishRed[i])
		}
	}
}
