package main

import (
	"os"
	"path/filepath"
	"testing"

	"babelfish"
	"babelfish/internal/telemetry"
)

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

// TestFlightBundleOnAuditViolation: poisoned TLB entries fail -audit, so
// the run exits 1 and writes an audit-violation bundle whose metrics.json
// reads back as a run report holding the machine's whole registry.
func TestFlightBundleOnAuditViolation(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-app", "mongodb", "-arch", "babelfish", "-cores", "1", "-containers", "2",
		"-scale", "0.25", "-warm", "50000", "-measure", "100000",
		"-inject-mem", "tlb", "-inject-mem-nth", "400", "-inject-mem-mode", "poison",
		"-audit", "-flight-recorder", dir}
	if got := run(args); got != 1 {
		t.Fatalf("bfsim %q exited %d, want 1", args, got)
	}
	bundle := filepath.Join(dir, "babelfish-audit-violation")
	for _, f := range []string{"trace.json", "audit.txt"} {
		if b, err := os.ReadFile(filepath.Join(bundle, f)); err != nil || len(b) == 0 {
			t.Fatalf("bundle %s: %d bytes, %v", f, len(b), err)
		}
	}
	rep, err := telemetry.ReadReportFile(filepath.Join(bundle, "metrics.json"))
	if err != nil {
		t.Fatal(err)
	}
	a, ok := rep.Arch("babelfish")
	if !ok || len(rep.Archs) != 1 || rep.Tool != "bfsim" {
		t.Fatalf("metrics.json: tool %q, archs %+v", rep.Tool, rep.Archs)
	}
	m, err := babelfish.NewMachineArch("babelfish", babelfish.Options{Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range m.Registry.Names() {
		if _, ok := a.Metric(name); !ok {
			t.Errorf("metrics.json lacks %s", name)
		}
	}
}
