package main

import "testing"

// TestUsageErrors: flag mistakes exit 2 before the fleet is built.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-jobs", "0"},
		{"-core-shards", "-1"},
		{"-flight-depth", "8"},
		{"-arch", "nosuch"},
		{"-app", "nosuch"},
		{"-scale", "NaN"},
		{"-load-shape", "const", "-load-rps", "+Inf"},
		{"-kill-seed", "3"},
		{"-part-len", "2"},
		{"-series-every", "2"},
		{"-queue-cap", "4"},
	} {
		if got := run(args); got != 2 {
			t.Errorf("bffleet %q exited %d, want 2", args, got)
		}
	}
}
