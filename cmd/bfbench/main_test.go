package main

import (
	"os"
	"strings"
	"testing"
)

// acceptedExps is every -exp spelling that selected an experiment before
// -exp was checked.
var acceptedExps = []string{"all", "tableI", "tablei", "fig7", "fig9", "fig10", "fig10a", "fig10b",
	"fig11", "tableII", "tableii", "tableIII", "largertlb", "bringup", "resources", "sweeps",
	"archcompare", "loadramp", "TABLEIII", "Fig10A", "ArchCompare"}

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
	for _, exp := range acceptedExps {
		if !validExp(exp) {
			t.Errorf("-exp %s rejected", exp)
		}
	}
}

// TestExpUsageNamesEveryID: the -exp help text lists exactly the ids the
// check accepts, so an accepted id cannot go missing from -h.
func TestExpUsageNamesEveryID(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "usage")
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = f
	status := run([]string{"-h"})
	os.Stderr = stderr
	f.Close()
	if status != 0 {
		t.Fatalf("bfbench -h exited %d, want 0", status)
	}
	usage, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	_, list, ok := strings.Cut(string(usage), "experiment id (")
	list, _, ok2 := strings.Cut(list, ")")
	if !ok || !ok2 {
		t.Fatalf("no -exp id list in the usage text:\n%s", usage)
	}
	listed := map[string]bool{}
	for _, id := range strings.Split(list, ", ") {
		listed[strings.ToLower(id)] = true
		if !validExp(id) {
			t.Errorf("-exp help lists %q, which the check rejects", id)
		}
	}
	for _, exp := range acceptedExps {
		if !listed[strings.ToLower(exp)] {
			t.Errorf("-exp help (%s) omits the accepted id %q", list, exp)
		}
	}
}
