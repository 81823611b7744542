package babelfish

import (
	"testing"

	"babelfish/internal/kernel"
	"babelfish/internal/xlatpolicy"
)

// TestArchEnumResolvesRegistry: every enum value must map onto a
// registered policy, and the string forms must stay stable (they label
// telemetry and CLI output).
func TestArchEnumResolvesRegistry(t *testing.T) {
	enums := []Arch{
		ArchBaseline, ArchBabelFish, ArchBabelFishSW, ArchVictima,
		ArchCoalesced, ArchBabelFishVictima, ArchBabelFishCoalesced,
	}
	for _, a := range enums {
		if _, ok := xlatpolicy.Get(a.policyName()); !ok {
			t.Errorf("%v: policy name %q not registered", a, a.policyName())
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
	if !bfc.Params.MMU.BabelFish {
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
