package babelfish

import (
	"fmt"
	"testing"

	"babelfish/internal/kernel"
	"babelfish/internal/workloads"
	"babelfish/internal/xlatpolicy"
)

// TestArchEnumResolvesRegistry: every enum value must map onto an
// architecture in the xlatpolicy table, and the string forms must stay stable (they label
// telemetry and CLI output).
func TestArchEnumResolvesRegistry(t *testing.T) {
	enums := []Arch{
		ArchBaseline, ArchBabelFish, ArchBabelFishSW, ArchVictima,
		ArchCoalesced, ArchBabelFishVictima, ArchBabelFishCoalesced,
	}
	for _, a := range enums {
		if _, ok := xlatpolicy.Get(a.policyName()); !ok {
			t.Errorf("%v: policy name %q not in the table", a, a.policyName())
		}
	}
	if ArchBabelFishSW.String() != "babelfish-sw" {
		t.Errorf("ArchBabelFishSW.String() = %q", ArchBabelFishSW.String())
	}
	if ArchVictima.String() != "victima" || ArchBabelFishCoalesced.String() != "babelfish+coalesced" {
		t.Errorf("enum strings drifted: %q %q", ArchVictima, ArchBabelFishCoalesced)
	}
}

// TestNewMachineArch: named construction must honour the registry (policy
// cores wired, kernel mode from the policy) and reject unknown names.
func TestNewMachineArch(t *testing.T) {
	m, err := NewMachineArch("victima", Options{Cores: 1, Mem: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if m.Cores[0].MMU.PolicyCore() == nil {
		t.Fatal("victima machine has no policy core")
	}
	if m.Kernel.Mode() != kernel.ModeBaseline {
		t.Fatalf("victima kernel mode = %v, want baseline", m.Kernel.Mode())
	}

	bfc, err := NewMachineArch("babelfish+coalesced", Options{Cores: 1, Mem: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if bfc.Kernel.Mode() != kernel.ModeBabelFish {
		t.Fatalf("babelfish+coalesced kernel mode = %v, want babelfish", bfc.Kernel.Mode())
	}
	if !bfc.Params.MMU.Policy.OPC() {
		t.Fatal("babelfish+coalesced lost the O-PC insert behaviour")
	}

	if _, err := NewMachineArch("nosuch", Options{}); err == nil {
		t.Fatal("NewMachineArch(nosuch) succeeded")
	}
}

// TestNewMachinePolicyEnums: the enum constructor reaches the policy
// archs too, and the ASLR-SW kernel tweak composes with them.
func TestNewMachinePolicyEnums(t *testing.T) {
	for _, a := range []Arch{ArchVictima, ArchCoalesced, ArchBabelFishVictima, ArchBabelFishCoalesced} {
		m := NewMachine(Options{Arch: a, Cores: 1, Mem: 256 << 20})
		if m.Cores[0].MMU.PolicyCore() == nil {
			t.Errorf("%v: no policy core", a)
		}
	}
}

// TestAppEnumIndexesApps: the App enum indexes workloads.Apps, so each
// value prints its spec's -app name; values off the list print App(n).
func TestAppEnumIndexesApps(t *testing.T) {
	apps := workloads.Apps()
	for i, spec := range apps {
		if got := App(i).String(); got != spec.Name {
			t.Errorf("App(%d).String() = %q, want %q", i, got, spec.Name)
		}
	}
	if FIO != App(len(apps)-1) {
		t.Errorf("FIO = %d, want the last of %d apps", FIO, len(apps))
	}
	for _, a := range []App{App(len(apps)), -1} {
		if got, want := a.String(), fmt.Sprintf("App(%d)", int(a)); got != want {
			t.Errorf("out-of-range App prints %q, want %q", got, want)
		}
	}
}
