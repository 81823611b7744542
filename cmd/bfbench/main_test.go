package main

import "testing"

// TestExitStatus: each -exp, -format and option mistake exits 2 before
// any experiment runs, while every -exp spelling run accepts, in any
// case, still passes the check.
func TestExitStatus(t *testing.T) {
	cases := []struct {
		args []string
		want int
	}{
		{[]string{"-exp", "nosuch"}, 2},
		{[]string{"-exp", "fig99"}, 2},
		{[]string{"-format", "xml"}, 2},
		{[]string{"-format", "JSON"}, 2},
		{[]string{"-quick", "-cores", "-3"}, 2},
		{[]string{"-quick", "-scale", "-1"}, 2},
		{[]string{"-quick", "-scale", "NaN"}, 2},
		{[]string{"-quick", "-scale", "+Inf"}, 2},
		{[]string{"-quick", "-warm", "-1"}, 2},
		{[]string{"-quick", "-measure", "-1"}, 2},
		{[]string{"-jobs", "0"}, 2},
		{[]string{"-flight-depth", "8"}, 2},
		{[]string{"-exp", "fig9", "-arch", "baseline"}, 2},
		{[]string{"-exp", "archcompare", "-arch", "both"}, 2},
		{[]string{"-exp", "tableiii"}, 0},
		{[]string{"-exp", "TableIII", "-cores", "0", "-scale", "0"}, 0},
	}
	for _, tc := range cases {
		if got := run(tc.args); got != tc.want {
			t.Errorf("bfbench %q exited %d, want %d", tc.args, got, tc.want)
		}
	}
	// Every value that selected an experiment before -exp was checked.
	for _, exp := range []string{"all", "tableI", "tablei", "fig7", "fig9", "fig10", "fig10a", "fig10b",
		"fig11", "tableII", "tableii", "tableIII", "largertlb", "bringup", "resources", "sweeps",
		"archcompare", "loadramp", "TABLEIII", "Fig10A", "ArchCompare"} {
		if !validExp(exp) {
			t.Errorf("-exp %s rejected", exp)
		}
	}
}
