package main

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestUsageErrors: flag mistakes exit 2 before anything is deployed.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-app", "nosuch"},
		{"-scale", "NaN"},
		{"-scale", "-1"},
		{"-scale", "0"},
		{"-scale", "+Inf"},
		{"-steps", "0"},
		{"-steps", "-5"},
		{"-nosuch"},
	} {
		if got := run(args); got != 2 {
			t.Errorf("bfworkload %q exited %d, want 2", args, got)
		}
	}
	if got := run([]string{"-h"}); got != 0 {
		t.Errorf("bfworkload -h exited %d, want 0", got)
	}
}

// stdout runs the command and returns what it printed.
func stdout(t *testing.T, args ...string) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	status := run(args)
	os.Stdout = saved
	if status != 0 {
		t.Fatalf("bfworkload %q exited %d", args, status)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestFiniteStreamCountsSampledSteps: a FaaS function's stream ends long
// before the default -steps. The report counts the steps it sampled, so
// the default run prints exactly what asking for the stream's length
// does.
func TestFiniteStreamCountsSampledSteps(t *testing.T) {
	full := stdout(t, "-app", "faas")
	var sampled int
	if _, err := fmt.Sscanf(full, "== faas access-stream sample (%d steps) ==", &sampled); err != nil {
		t.Fatalf("no header in:\n%s", full)
	}
	if sampled <= 0 || sampled >= 200_000 {
		t.Fatalf("sampled %d steps of a finite stream with the default -steps 200000", sampled)
	}
	if !strings.Contains(full, "requests sampled: 1,") {
		t.Errorf("the function's request was not sampled:\n%s", full)
	}
	if exact := stdout(t, "-app", "faas", "-steps", fmt.Sprint(sampled)); exact != full {
		t.Errorf("default and -steps %d reports differ:\n%s\nvs\n%s", sampled, full, exact)
	}
}
