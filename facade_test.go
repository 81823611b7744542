package babelfish

import (
	"testing"

	"babelfish/internal/kernel"
)

func TestNewMachineOptions(t *testing.T) {
	m := NewMachine(Options{Arch: ArchBabelFish, Cores: 3, Mem: 256 << 20, Quantum: 12345})
	if len(m.Cores) != 3 {
		t.Fatalf("cores = %d", len(m.Cores))
	}
	if m.Params.Quantum != 12345 {
		t.Fatalf("quantum = %d", m.Params.Quantum)
	}
	if m.Kernel.Mode() != kernel.ModeBabelFish {
		t.Fatalf("mode = %v", m.Kernel.Mode())
	}
	if !m.Params.MMU.Policy.OPC() || !m.Params.MMU.ASLRHW {
		t.Fatal("MMU not configured for BabelFish ASLR-HW")
	}

	sw := NewMachine(Options{Arch: ArchBabelFishSW, Cores: 1})
	if sw.Params.MMU.ASLRHW || sw.Params.Kernel.ASLR != kernel.ASLRSW {
		t.Fatal("ASLR-SW variant misconfigured")
	}

	base := NewMachine(Options{Arch: ArchBaseline, Cores: 1, DisableTHP: true})
	if base.Params.MMU.Policy.OPC() || base.Params.Kernel.THP {
		t.Fatal("baseline variant misconfigured")
	}
}

func TestAppNamesAndSpecs(t *testing.T) {
	apps := []App{MongoDB, ArangoDB, HTTPd, GraphChi, FIO}
	names := map[string]bool{}
	for _, a := range apps {
		if a.String() == "" || names[a.String()] {
			t.Fatalf("bad or duplicate app name %q", a.String())
		}
		names[a.String()] = true
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	m := NewMachine(Options{Arch: ArchBabelFish, Cores: 1, Mem: 512 << 20, Quantum: 100_000})
	d, err := DeployApp(m, HTTPd, 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 2; j++ {
		if _, _, err := d.Spawn(0, uint64(j)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.PrefaultAll(); err != nil {
		t.Fatal(err)
	}
	reg := m.EnableTelemetry(0)
	if err := m.Run(100_000); err != nil {
		t.Fatal(err)
	}
	if d.MeanLatency() <= 0 {
		t.Fatal("no latency recorded")
	}
	translations, _ := reg.Value("mmu.translations")
	instrs, _ := reg.Value("sim.instrs")
	if translations == 0 || instrs == 0 {
		t.Fatalf("registry recorded nothing: translations=%v instrs=%v", translations, instrs)
	}
	if got := m.XlatHist().Count(); float64(got) != translations {
		t.Fatalf("xlat.latency saw %d translations, mmu.translations = %v", got, translations)
	}
}

func TestFacadeServerless(t *testing.T) {
	m := NewMachine(Options{Arch: ArchBaseline, Cores: 1, Mem: 512 << 20, Quantum: 100_000})
	fg, err := DeployServerless(m, false, 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	task, forkCycles, err := fg.Spawn("hash", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if forkCycles == 0 {
		t.Fatal("fork cost zero")
	}
	if err := m.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	if !task.Done || task.OwnReqs != 1 {
		t.Fatalf("function not measured: done=%v lat=%d", task.Done, task.OwnReqs)
	}
}

func TestFacadeEngine(t *testing.T) {
	m := NewMachine(Options{Arch: ArchBabelFish, Cores: 1, Mem: 512 << 20, Quantum: 100_000})
	d, err := DeployApp(m, FIO, 0.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(m)
	c, err := e.Start(d, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.TotalBringUp() <= c.EngineCycles {
		t.Fatal("bring-up does not include page touching")
	}
	e.Stop(d, c)
}
