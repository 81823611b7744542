package main

import "testing"

// TestUsageErrors: flag mistakes exit 2 before anything is simulated.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-scale", "NaN"},
		{"-scale", "+Inf"},
		{"-scale", "0"},
		{"-jobs", "0"},
		{"-core-shards", "-1"},
		{"-flight-depth", "8"},
		{"-arch", "nosuch"},
		{"-app", "nosuch"},
		{"-failseed", "3"},
		{"-inject-mem-nth", "3"},
		{"-series-out", "s.jsonl", "-sample-every", "100"},
	} {
		if got := run(args); got != 2 {
			t.Errorf("bfsim %q exited %d, want 2", args, got)
		}
	}
}
