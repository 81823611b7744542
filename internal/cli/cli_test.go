package cli

import (
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"babelfish/internal/xlatpolicy"
)

// quiet returns a command whose usage text and messages are discarded.
func quiet(recorder bool) *Command {
	c := New("test", recorder)
	c.SetOutput(io.Discard)
	return c
}

// TestCheck gives every shared rule one failing row and the nearby legal
// invocations one passing row each.
func TestCheck(t *testing.T) {
	cases := []struct {
		name     string
		recorder bool
		args     []string
		want     string // the error message; "" = accepted
	}{
		{"defaults", true, nil, ""},
		{"jobs given as zero", true, []string{"-jobs", "0"}, "-jobs must be positive (omit the flag for GOMAXPROCS)"},
		{"jobs negative", false, []string{"-jobs", "-2"}, "-jobs must be positive (omit the flag for GOMAXPROCS)"},
		{"jobs positive", false, []string{"-jobs", "3"}, ""},
		{"core-shards negative", true, []string{"-core-shards", "-1"}, "-core-shards must be non-negative (0 = classic serial stepping)"},
		{"core-shards positive", true, []string{"-core-shards", "4"}, ""},
		{"flight-depth negative", true, []string{"-flight-depth", "-1", "-trace-out", "t.json"}, "-flight-depth must be non-negative"},
		{"flight-depth without output", true, []string{"-flight-depth", "8"}, "-flight-depth has no effect without -trace-out or -flight-recorder"},
		{"flight-depth zero without output", true, []string{"-flight-depth", "0"}, "-flight-depth has no effect without -trace-out or -flight-recorder"},
		{"flight-depth without trace, no recorder flag", false, []string{"-flight-depth", "8"}, "-flight-depth has no effect without -trace-out"},
		{"flight-depth with trace-out", false, []string{"-flight-depth", "8", "-trace-out", "t.jsonl"}, ""},
		{"flight-depth with flight-recorder", true, []string{"-flight-depth", "8", "-flight-recorder", "dir"}, ""},
	}
	for _, tc := range cases {
		c := quiet(tc.recorder)
		if err := c.FlagSet.Parse(tc.args); err != nil {
			t.Fatalf("%s: parse: %v", tc.name, err)
		}
		got := ""
		if err := c.Check(); err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("%s: got %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestPositive: the one finite-and-positive float rule behind every
// -scale and bffleet's -load-rps.
func TestPositive(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1, math.Copysign(0, -1)} {
		if err := Positive("scale", v); err == nil || err.Error() != "-scale must be a positive number" {
			t.Errorf("Positive(%v) = %v, want the -scale error", v, err)
		}
	}
	for _, v := range []float64{0.25, 1, math.SmallestNonzeroFloat64, math.MaxFloat64} {
		if err := Positive("scale", v); err != nil {
			t.Errorf("Positive(%v) = %v", v, err)
		}
	}
}

// TestParseStatus: -h exits 0, a parse error and a failed check exit 2,
// and a clean command line continues.
func TestParseStatus(t *testing.T) {
	cases := []struct {
		args   []string
		status int
		ok     bool
	}{
		{nil, 0, true},
		{[]string{"-h"}, 0, false},
		{[]string{"-nosuch"}, 2, false},
		{[]string{"-jobs", "x"}, 2, false},
		{[]string{"-jobs", "0"}, 2, false},
		{[]string{"-jobs", "2", "-core-shards", "1"}, 0, true},
	}
	for _, tc := range cases {
		status, ok := quiet(true).Parse(tc.args)
		if status != tc.status || ok != tc.ok {
			t.Errorf("Parse(%q) = (%d, %v), want (%d, %v)", tc.args, status, ok, tc.status, tc.ok)
		}
	}
}

// TestArch: every registered architecture is accepted as itself, "both"
// expands to the paper's pair, and an unknown name is rejected with the
// registry list, so a newly registered policy shows up at once.
func TestArch(t *testing.T) {
	for _, name := range xlatpolicy.Names() {
		got, err := Arch(name)
		if err != nil || !slices.Equal(got, []string{name}) {
			t.Errorf("Arch(%q) = %v, %v", name, got, err)
		}
	}
	got, err := Arch("both")
	if err != nil || !slices.Equal(got, []string{"baseline", "babelfish"}) {
		t.Errorf("Arch(both) = %v, %v", got, err)
	}
	_, err = Arch("nosuch")
	if err == nil {
		t.Fatal("Arch(nosuch) accepted")
	}
	for _, name := range xlatpolicy.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("Arch(nosuch) error misses registered %q: %v", name, err)
		}
	}
	if !strings.HasSuffix(err.Error(), "|both)") {
		t.Errorf("Arch(nosuch) error = %q, want the list to end in |both", err)
	}
}

// TestApp: the five paper workloads resolve to their specs; anything
// else is rejected.
func TestApp(t *testing.T) {
	for _, name := range []string{"mongodb", "arangodb", "httpd", "graphchi", "fio"} {
		spec, err := App(name)
		if err != nil || spec().Name != name {
			t.Errorf("App(%q): %v", name, err)
		}
	}
	for _, name := range []string{"faas", "MongoDB", ""} {
		if _, err := App(name); err == nil {
			t.Errorf("App(%q) accepted", name)
		}
	}
}

// FuzzCheck drives Check with arbitrary shared-flag values and any
// subset of them given on the command line: it must never panic and
// must return the same answer when asked twice.
func FuzzCheck(f *testing.F) {
	f.Add(0, 0, 0, "", "", uint8(0), true, 0.5)
	f.Add(0, -1, 8, "t.json", "", uint8(0x1f), false, math.NaN())
	f.Add(-3, 2, -1, "", "dir", uint8(0x15), true, math.Inf(1))
	f.Fuzz(func(t *testing.T, jobs, shards, depth int, trace, dir string, given uint8, recorder bool, scale float64) {
		all := []struct{ name, value string }{
			{"jobs", strconv.Itoa(jobs)},
			{"core-shards", strconv.Itoa(shards)},
			{"flight-depth", strconv.Itoa(depth)},
			{"trace-out", trace},
			{"flight-recorder", dir},
		}
		var args []string
		for i, fl := range all {
			if given&(1<<i) != 0 && (recorder || fl.name != "flight-recorder") {
				args = append(args, "-"+fl.name+"="+fl.value)
			}
		}
		c := quiet(recorder)
		if err := c.FlagSet.Parse(args); err != nil {
			t.Fatalf("parse %q: %v", args, err)
		}
		first, second := c.Check(), c.Check()
		if (first == nil) != (second == nil) || (first != nil && first.Error() != second.Error()) {
			t.Fatalf("Check not deterministic for %q: %v then %v", args, first, second)
		}
		if (Positive("scale", scale) == nil) != (scale > 0 && !math.IsInf(scale, 1)) {
			t.Fatalf("Positive(%v) disagrees with the rule", scale)
		}
	})
}
