package sim_test

import (
	"fmt"
	"testing"

	"babelfish/internal/kernel"
	"babelfish/internal/memdefs"
	"babelfish/internal/memsys"
	"babelfish/internal/metrics"
	"babelfish/internal/sim"
	"babelfish/internal/workloads"
)

// runChaos deploys the quickstart workload (two MongoDB containers on one
// core), installs a fault injector failing every nth allocation, and runs
// the machine. The run must complete — tasks may be OOM-killed, the machine
// must not crash — and afterwards both the allocator's and the kernel's
// books must balance.
func runChaos(t *testing.T, nth uint64) metrics.Counters {
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
	c, err := m.Counters()
	if err != nil {
		t.Fatal(err)
	}
	if c.KernelBugs != 0 {
		t.Errorf("kernel bug panics under chaos: %d", c.KernelBugs)
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
			if c1.InjectedFaults == 0 {
				t.Fatalf("injector never fired at nth=%d", nth)
			}
			c2 := runChaos(t, nth)
			if c1 != c2 {
				t.Fatalf("nondeterministic chaos run:\n  first:  %s\n  second: %s", c1, c2)
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
	c, err := m.Counters()
	if err != nil {
		t.Fatal(err)
	}
	if c.OOMEvents == 0 {
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
