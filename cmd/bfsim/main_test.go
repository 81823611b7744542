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
		{"-inject-mem-max", "5"},
		{"-inject-mem-mode", "poison"},
		{"-inject-mem-nth", "5", "-inject-mem-seed", "3"},
		{"-inject-mem", "all"},
		{"-inject-mem", "all", "-inject-mem-seed", "3"},
		{"-inject-mem", "all", "-inject-mem-prob", "1"},
		{"-inject-mem", "all", "-inject-mem-prob", "NaN"},
		{"-inject-mem", "nosuch", "-inject-mem-nth", "5"},
		{"-inject-mem", "cache", "-inject-mem-nth", "5", "-inject-mem-mode", "poison"},
		{"-inject-mem", "tlb", "-inject-mem-nth", "5", "-inject-mem-mode", "nosuch"},
	} {
		if got := run(args); got != 2 {
			t.Errorf("bfsim %q exited %d, want 2", args, got)
		}
	}
}
