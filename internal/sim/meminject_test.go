package sim_test

import (
	"fmt"
	"maps"
	"testing"

	"babelfish/internal/kernel"
	"babelfish/internal/memsys"
	"babelfish/internal/sim"
	"babelfish/internal/workloads"
)

// runMemChaos deploys the quickstart workload on one core, arms the
// memory-system injector at the given targets in drop mode, and runs the
// machine. Drop faults must be absorbed: the run completes, every audit
// stays clean, and the counters are returned for replay comparison.
func runMemChaos(t *testing.T, targets memsys.Target, nth uint64) (map[string]uint64, uint64) {
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
	m.SetMemInjector(targets, memsys.InjectConfig{Seed: 0xBADC0DE, Nth: nth, Mode: memsys.ModeDrop})
	if err := m.Run(150_000); err != nil {
		t.Fatalf("run aborted under %s injection (nth=%d): %v", targets, nth, err)
	}
	injected := m.MemInjected()
	m.SetMemInjector(0, memsys.InjectConfig{})

	// Drops cost latency, never correctness: every book still balances.
	if rep := m.Mem.Audit(); !rep.OK() {
		t.Errorf("physmem audit (%s):\n%s", targets, rep)
	}
	if rep := m.Kernel.Audit(); !rep.OK() {
		t.Errorf("kernel audit (%s):\n%s", targets, rep)
	}
	if rep := m.AuditTLBs(); !rep.OK() {
		t.Errorf("TLB audit (%s):\n%s", targets, rep)
	}
	c := robustness(t, m)
	if c["sim.kernel_bugs"] != 0 {
		t.Errorf("kernel bug panics under %s injection: %d", targets, c["sim.kernel_bugs"])
	}
	return c, injected
}

// TestMemInjectionSweep arms every injection point — each alone, then all
// at once — in drop mode and checks three things per target: the injector
// actually fired, the machine absorbed every fault (clean audits, no
// aborted run), and a replay with the same seed is bit-identical.
func TestMemInjectionSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("mem chaos sweep is slow")
	}
	for _, tc := range []struct {
		targets memsys.Target
		nth     uint64
	}{
		{memsys.TargetTLB, 7},
		{memsys.TargetPWC, 3},
		{memsys.TargetCache, 13},
		{memsys.TargetDRAM, 5},
		{memsys.TargetAll, 11},
	} {
		tc := tc
		t.Run(fmt.Sprintf("%s/nth=%d", tc.targets, tc.nth), func(t *testing.T) {
			c1, inj1 := runMemChaos(t, tc.targets, tc.nth)
			if inj1 == 0 {
				t.Fatalf("injector never fired for %s at nth=%d", tc.targets, tc.nth)
			}
			c2, inj2 := runMemChaos(t, tc.targets, tc.nth)
			if !maps.Equal(c1, c2) || inj1 != inj2 {
				t.Fatalf("nondeterministic mem chaos (injected %d vs %d):\n  first:  %v\n  second: %v",
					inj1, inj2, c1, c2)
			}
		})
	}
}

// TestTLBPoisonCaught fills the TLBs, then flips the identity tags of a
// few resident entries (poison mode). The poisoned entries can never
// legitimately hit again — the access re-walks and still gets the right
// translation — but they now claim an owner that does not exist, which
// AuditTLBs must flag. This proves corruption is *caught*, not silently
// absorbed.
func TestTLBPoisonCaught(t *testing.T) {
	p := sim.DefaultParams(kernel.ModeBaseline)
	p.Cores = 1
	p.MemBytes = 64 << 20
	m := sim.New(p)
	k := m.Kernel
	g := k.NewGroup("app", 1)
	proc, err := k.CreateProcess(g, "app")
	if err != nil {
		t.Fatal(err)
	}
	r := g.MustRegion("heap", kernel.SegHeap, 16)
	proc.MustMapAnon(r, 0x7, "heap")
	m.AddTask(0, proc, &hogGen{proc: proc, r: r})

	// Warm phase: touch all 16 pages so the TLBs are full of valid entries.
	if err := m.Run(50_000); err != nil {
		t.Fatal(err)
	}
	if rep := m.AuditTLBs(); !rep.OK() || rep.TLBEntriesChecked == 0 {
		t.Fatalf("warm TLB state not clean/populated:\n%s", rep)
	}

	// Poison phase: the first few TLB hits have their entry's PCID/CCID
	// tags flipped in place and are re-walked.
	m.SetMemInjector(memsys.TargetTLB, memsys.InjectConfig{
		Nth: 1, MaxFaults: 4, Mode: memsys.ModePoison,
	})
	if err := m.Run(20_000); err != nil {
		t.Fatalf("run aborted under poison (the re-walk must absorb it): %v", err)
	}
	if m.MemInjected() == 0 {
		t.Fatal("poison injector never fired")
	}

	// The auditor must see the bogus owner tags.
	rep := m.AuditTLBs()
	if rep.OK() {
		t.Fatalf("AuditTLBs missed %d poisoned entries (checked %d)",
			m.MemInjected(), rep.TLBEntriesChecked)
	}

	// Poison corrupts identity tags only — translations stayed correct, so
	// the kernel and allocator books still balance and no bug fired.
	if rep := m.Kernel.Audit(); !rep.OK() {
		t.Fatalf("kernel audit:\n%s", rep)
	}
	if rep := m.Mem.Audit(); !rep.OK() {
		t.Fatalf("physmem audit:\n%s", rep)
	}
	if bugs := robustness(t, m)["sim.kernel_bugs"]; bugs != 0 {
		t.Fatalf("kernel bugs under poison: %d", bugs)
	}
}

// TestOOMKillSMT starves an SMT core: two hog siblings write-sweeping
// over-sized heaps against a tiny physical memory. The OOM killer must
// terminate tasks on the SMT path without crashing the run, and the books
// must balance afterwards.
func TestOOMKillSMT(t *testing.T) {
	p := sim.DefaultParams(kernel.ModeBaseline)
	p.Cores = 1
	p.MemBytes = 4 << 20 // 1024 frames
	p.Kernel.THP = false
	p.SMT = true
	m := sim.New(p)
	k := m.Kernel
	g := k.NewGroup("hog", 2)
	r := g.MustRegion("heap", kernel.SegHeap, 4096)
	var tasks []*sim.Task
	for i := 0; i < 2; i++ {
		proc, err := k.CreateProcess(g, fmt.Sprintf("hog%d", i))
		if err != nil {
			t.Fatal(err)
		}
		proc.MustMapAnon(r, 0x7, "heap") // rwx heap, 2×8× physical memory
		tasks = append(tasks, m.AddTask(0, proc, &hogGen{proc: proc, r: r}))
	}
	if err := m.Run(10_000_000); err != nil {
		t.Fatalf("SMT run aborted instead of OOM-killing: %v", err)
	}
	if m.OOMKills() == 0 {
		t.Fatal("no task OOM-killed on the SMT path")
	}
	killed := 0
	for _, task := range tasks {
		if task.OOMKilled {
			if !task.Done {
				t.Fatal("OOM-killed task not marked done")
			}
			killed++
		}
	}
	if uint64(killed) != m.OOMKills() {
		t.Fatalf("OOMKills()=%d but %d tasks marked killed", m.OOMKills(), killed)
	}
	if robustness(t, m)["kernel.oom_events"] == 0 {
		t.Fatal("no OOM events counted")
	}
	// The killed process's memory was freed and its translations flushed.
	if rep := m.Kernel.Audit(); !rep.OK() {
		t.Fatalf("kernel audit after SMT OOM kill:\n%s", rep)
	}
	if rep := m.Mem.Audit(); !rep.OK() {
		t.Fatalf("physmem audit after SMT OOM kill:\n%s", rep)
	}
	if rep := m.AuditTLBs(); !rep.OK() {
		t.Fatalf("TLB audit after SMT OOM kill:\n%s", rep)
	}
}
