package sim_test

import (
	"fmt"
	"maps"
	"testing"

	"babelfish/internal/kernel"
	"babelfish/internal/memdefs"
	"babelfish/internal/memsys"
	"babelfish/internal/sim"
	"babelfish/internal/workloads"
)

// robustnessCounters are the registry counters that record how a run
// absorbed memory pressure (the counters of bfsim's robustness line).
var robustnessCounters = []string{
	"kernel.oom_events", "kernel.reclaimed_pages", "phys.injected_faults",
	"sim.oom_kills", "sim.kernel_bugs",
}

// robustness reads the robustness counters from m's registry, failing the
// test when one is not registered.
func robustness(t *testing.T, m *sim.Machine) map[string]uint64 {
	t.Helper()
	c := make(map[string]uint64, len(robustnessCounters))
	for _, name := range robustnessCounters {
		v, ok := m.Registry.Value(name)
		if !ok {
			t.Fatalf("counter metric not registered: %s", name)
		}
		c[name] = uint64(v)
	}
	return c
}

// runChaos deploys the quickstart workload (two MongoDB containers on one
// core), installs a fault injector failing every nth allocation, and runs
// the machine. The run must complete — tasks may be OOM-killed, the machine
// must not crash — and afterwards both the allocator's and the kernel's
// books must balance.
func runChaos(t *testing.T, nth uint64) map[string]uint64 {
	t.Helper()
	p := sim.DefaultParams(kernel.ModeBabelFish)
	p.Cores = 1
	p.MemBytes = 512 << 20
	m := sim.New(p)
	d, err := workloads.Deploy(m, workloads.MongoDB(), 0.25, 42)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 2; j++ {
		if _, _, err := d.Spawn(0, uint64(100+j)); err != nil {
			t.Fatal(err)
		}
	}
	// No PrefaultAll: the run takes every first-touch fault — zero-fill,
	// CoW and page-table growth all allocate — under injection. Deployment
	// (and the file prefault inside it) stays injection-free so every run
	// starts from the same baseline state.
	m.Mem.SetInjector(memsys.NewInjector(memsys.InjectConfig{Seed: 0xC0FFEE, Nth: nth}))
	defer m.Mem.SetInjector(nil)
	if err := m.Run(150_000); err != nil {
		t.Fatalf("run aborted under injection (nth=%d): %v", nth, err)
	}
	m.Mem.SetInjector(nil)

	if rep := m.Mem.Audit(); !rep.OK() {
		t.Errorf("physmem audit (nth=%d):\n%s", nth, rep)
	}
	if rep := m.Kernel.Audit(); !rep.OK() {
		t.Errorf("kernel audit (nth=%d):\n%s", nth, rep)
	}
	if rep := m.AuditTLBs(); !rep.OK() {
		t.Errorf("TLB audit (nth=%d):\n%s", nth, rep)
	} else if rep.TLBEntriesChecked == 0 && len(m.Tasks()) > 0 {
		// Empty TLBs are legitimate only when every task was OOM-killed
		// and its exit flushed all its translations.
		alive := false
		for _, task := range m.Tasks() {
			if !task.Done {
				alive = true
			}
		}
		if alive {
			t.Errorf("TLB audit checked no entries with live tasks (nth=%d)", nth)
		}
	}
	c := robustness(t, m)
	if c["sim.kernel_bugs"] != 0 {
		t.Errorf("kernel bug panics under chaos: %d", c["sim.kernel_bugs"])
	}
	return c
}

// TestChaosInjectionSweep sweeps injection rates from brutal (every 2nd
// allocation fails) to sparse, and replays each rate to prove the whole
// machine — injector, reclaim, OOM killer — is deterministic.
func TestChaosInjectionSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep is slow")
	}
	for _, nth := range []uint64{2, 5, 17} {
		nth := nth
		t.Run(fmt.Sprintf("nth=%d", nth), func(t *testing.T) {
			c1 := runChaos(t, nth)
			if c1["phys.injected_faults"] == 0 {
				t.Fatalf("injector never fired at nth=%d", nth)
			}
			c2 := runChaos(t, nth)
			if !maps.Equal(c1, c2) {
				t.Fatalf("nondeterministic chaos run:\n  first:  %v\n  second: %v", c1, c2)
			}
		})
	}
}

// hogGen write-sweeps an anonymous region page by page, forcing a fresh
// zero-fill allocation per step until physical memory runs out.
type hogGen struct {
	proc *kernel.Process
	r    kernel.Region
	i    int
}

func (g *hogGen) Next(s *sim.Step) bool {
	s.VA = g.proc.ProcVA(g.r.PageVA(g.i % g.r.Pages))
	s.Write = true
	s.Kind = memdefs.AccessData
	s.Think = 1
	s.Req = sim.ReqNone
	g.i++
	return true
}

// TestOOMKillerTerminatesTask starves the machine for real (no injector):
// a small physical memory and an over-sized anonymous heap. The OOM killer
// must terminate the task and free its memory instead of crashing the run.
func TestOOMKillerTerminatesTask(t *testing.T) {
	p := sim.DefaultParams(kernel.ModeBaseline)
	p.Cores = 1
	p.MemBytes = 4 << 20 // 1024 frames
	p.Kernel.THP = false
	m := sim.New(p)
	k := m.Kernel
	g := k.NewGroup("hog", 1)
	proc, err := k.CreateProcess(g, "hog")
	if err != nil {
		t.Fatal(err)
	}
	r := g.MustRegion("heap", kernel.SegHeap, 4096)
	proc.MustMapAnon(r, 0x7, "heap") // rwx user heap, 4× physical memory
	task := m.AddTask(0, proc, &hogGen{proc: proc, r: r})
	if err := m.Run(5_000_000); err != nil {
		t.Fatalf("run aborted instead of OOM-killing: %v", err)
	}
	if !task.OOMKilled || !task.Done {
		t.Fatalf("task not OOM-killed (done=%v oomKilled=%v)", task.Done, task.OOMKilled)
	}
	if m.OOMKills() != 1 {
		t.Fatalf("OOMKills = %d, want 1", m.OOMKills())
	}
	if robustness(t, m)["kernel.oom_events"] == 0 {
		t.Fatal("no OOM events counted")
	}
	// The killed process's memory was freed; the books still balance.
	if rep := m.Kernel.Audit(); !rep.OK() {
		t.Fatalf("kernel audit after OOM kill:\n%s", rep)
	}
	if rep := m.Mem.Audit(); !rep.OK() {
		t.Fatalf("physmem audit after OOM kill:\n%s", rep)
	}
	// The exit flush must have removed the dead process's translations.
	if rep := m.AuditTLBs(); !rep.OK() {
		t.Fatalf("TLB audit after OOM kill:\n%s", rep)
	}
}
