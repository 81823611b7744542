package experiments

import (
	"reflect"
	"testing"
)

// TestLoadRamp: an unknown architecture name fails the plan before any
// cell runs, even one declared before it. At Quick(), each cell is
// offered its level times the 16 epochs, serves and drops no more than
// it is offered, and the ramp is byte-identical at Jobs 1 and 4.
func TestLoadRamp(t *testing.T) {
	var s Suite
	ran := false
	s.own.add("probe", func() error { ran = true; return nil })
	s.LoadRamp(Quick(), []string{"baseline", "nosuch"})
	if err := s.Run(1); err == nil {
		t.Fatal("unknown arch accepted")
	}
	if ran || len(s.own.runs) != 1 {
		t.Errorf("a failed declaration still ran cells (probe ran: %v, %d cells declared)", ran, len(s.own.runs))
	}
	if testing.Short() {
		t.Skip("fleet runs")
	}

	var runs []*LoadRampResult
	for _, jobs := range []int{1, 4} {
		o := Quick()
		o.Jobs = jobs
		r, err := LoadRamp(o, nil)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, r)
	}
	r := runs[0]
	if !reflect.DeepEqual(r.Archs, []string{"baseline", "babelfish"}) || len(r.Cells) != 2 {
		t.Fatalf("Archs = %v (%d cell rows), want the baseline-babelfish pair", r.Archs, len(r.Cells))
	}
	offered := []uint64{32, 128, 512, 2048}
	for i, row := range r.Cells {
		if len(row) != len(offered) {
			t.Fatalf("%s: %d cells, want %d", r.Archs[i], len(row), len(offered))
		}
		for j, c := range row {
			if c.Arch != r.Archs[i] || c.Offered != offered[j] || uint64(c.RPS)*16 != c.Offered {
				t.Errorf("cell %s/rps%g offered %d requests, want %d", c.Arch, c.RPS, c.Offered, offered[j])
			}
			if c.Served+c.Dropped > c.Offered {
				t.Errorf("cell %s/rps%g served %d and dropped %d of %d offered", c.Arch, c.RPS, c.Served, c.Dropped, c.Offered)
			}
		}
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Errorf("ramp diverged across jobs widths:\n--- jobs=1 ---\n%s\n--- jobs=4 ---\n%s", runs[0], runs[1])
	}
}
