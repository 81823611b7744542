package experiments

import (
	"reflect"
	"strings"
	"testing"

	"babelfish/internal/xlatpolicy"
)

func tinyArchOptions() Options {
	o := Quick()
	o.Scale = 0.2
	o.WarmInstr = 100_000
	o.MeasureInstr = 200_000
	return o
}

// TestArchCompare runs the head-to-head sweep across four architectures
// and checks the result shape plus the directional finding the sweep
// exists to show: the reach policies (victima, coalesced) must cut page
// walks per kilo-instruction relative to the baseline somewhere.
func TestArchCompare(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	archs := []string{"baseline", "babelfish", "victima", "coalesced"}
	r, err := ArchCompare(tinyArchOptions(), archs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Archs, archs) {
		t.Fatalf("Archs = %v", r.Archs)
	}
	if len(r.Apps) != 5 || len(r.Cells) != 5 {
		t.Fatalf("apps = %v (%d cell rows)", r.Apps, len(r.Cells))
	}
	reachWins := false
	for i := range r.Cells {
		if len(r.Cells[i]) != len(archs) {
			t.Fatalf("row %d has %d cells", i, len(r.Cells[i]))
		}
		for j, c := range r.Cells[i] {
			if c.App != r.Apps[i] || c.Arch != archs[j] {
				t.Fatalf("cell [%d][%d] mislabelled: %+v", i, j, c)
			}
			if c.MeanLat <= 0 || c.WalksPKI <= 0 {
				t.Fatalf("cell %s/%s empty: %+v", c.App, c.Arch, c)
			}
		}
		base := r.Cells[i][0].WalksPKI
		if r.Cells[i][2].WalksPKI < base || r.Cells[i][3].WalksPKI < base {
			reachWins = true
		}
	}
	if !reachWins {
		t.Error("neither victima nor coalesced ever reduced walksPKI below baseline")
	}
	// The sweep's baseline and babelfish cells are the runs the paper's
	// figures read: their machines are the same parameters.
	o := tinyArchOptions()
	for name, a := range map[string]Arch{"baseline": Baseline, "babelfish": BabelFish} {
		if p, err := o.ParamsForArch(name); err != nil || p != o.Params(a) {
			t.Errorf("ParamsForArch(%q) is not Params(%s) (err %v)", name, a, err)
		}
	}
	var suite Suite
	suite.Fig10(o)
	before := len(suite.serving.runs)
	suite.ArchCompare(o, archs)
	if got, want := len(suite.serving.runs)-before, 2*len(r.Apps); got != want {
		t.Errorf("archcompare added %d serving runs to Figure 10's, want %d (victima and coalesced only)", got, want)
	}
	s := r.String()
	if !strings.Contains(s, "Architecture head-to-head") || !strings.Contains(s, "Winner by mean request latency") {
		t.Errorf("rendered table missing sections:\n%s", s)
	}
}

// TestArchCompareJobsIdentity: cells are independent machines, so the
// sweep must be byte-identical at any worker-pool width.
func TestArchCompareJobsIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	archs := []string{"baseline", "coalesced"}
	serial := tinyArchOptions()
	serial.Jobs = 1
	want, err := ArchCompare(serial, archs)
	if err != nil {
		t.Fatal(err)
	}
	wide := tinyArchOptions()
	wide.Jobs = 4
	got, err := ArchCompare(wide, archs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sweep diverged across jobs widths:\n--- jobs=1 ---\n%s\n--- jobs=4 ---\n%s", want, got)
	}
}

// TestArchCompareValidation: unknown names fail fast, before any cell
// runs, and an empty list sweeps the whole registry.
func TestArchCompareValidation(t *testing.T) {
	if _, err := ArchCompare(tinyArchOptions(), []string{"baseline", "nosuch"}); err == nil {
		t.Fatal("unknown arch accepted")
	}
	if testing.Short() {
		t.Skip("full-registry sweep is slow")
	}
	o := tinyArchOptions()
	o.WarmInstr = 50_000
	o.MeasureInstr = 50_000
	r, err := ArchCompare(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Archs, xlatpolicy.Names()) {
		t.Fatalf("default sweep = %v, want the whole registry %v", r.Archs, xlatpolicy.Names())
	}
}
