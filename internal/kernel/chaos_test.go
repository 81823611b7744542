package kernel

import (
	"errors"
	"fmt"
	"testing"

	"babelfish/internal/memdefs"
	"babelfish/internal/memsys"
	"babelfish/internal/physmem"
)

// chaosRound drives a fork/fault/exit workload with the injector failing
// every nth allocation, and returns (injected, oomEvents). Every error the
// workload sees must be ErrOutOfMemory — anything else means an injected
// failure escaped through a path that doesn't understand OOM.
func chaosRound(t *testing.T, mode Mode, nth uint64) (uint64, uint64) {
	t.Helper()
	bugsBefore := BugCount()
	k := New(physmem.New(64<<20), DefaultConfig(mode))
	g := k.NewGroup("app", 7)
	tmpl, err := k.CreateProcess(g, "tmpl")
	if err != nil {
		t.Fatal(err)
	}
	f := k.MustCreateFile("data", 128)
	r := g.MustRegion("data", SegMmap, 128)
	rh := g.MustRegion("heap", SegHeap, 64)
	tmpl.MustMapFile(r, f, 0, rw, true, "data")
	tmpl.MustMapAnon(rh, rw, "heap")

	inj := memsys.NewInjector(memsys.InjectConfig{Seed: 0xBF, Nth: nth})
	k.Mem.SetInjector(inj)
	defer k.Mem.SetInjector(nil)

	tolerate := func(op string, err error) {
		if err != nil && !errors.Is(err, physmem.ErrOutOfMemory) {
			t.Fatalf("%s: non-OOM error under injection: %v", op, err)
		}
	}
	var procs []*Process
	for i := 0; i < 3; i++ {
		c, _, err := k.Fork(tmpl, fmt.Sprintf("c%d", i))
		if err != nil {
			tolerate("fork", err)
			continue
		}
		procs = append(procs, c)
	}
	for _, p := range procs {
		for i := 0; i < 128; i++ {
			_, err := k.HandleFault(p.PID, p.ProcVA(r.PageVA(i)), i%4 == 0, memdefs.AccessData)
			tolerate("file fault", err)
		}
		for i := 0; i < 64; i++ {
			_, err := k.HandleFault(p.PID, p.ProcVA(rh.PageVA(i)), true, memdefs.AccessData)
			tolerate("anon fault", err)
		}
	}
	if len(procs) > 0 {
		procs[0].Exit()
	}

	k.Mem.SetInjector(nil)
	if rep := k.Audit(); !rep.OK() {
		t.Fatalf("kernel audit after chaos (nth=%d):\n%s", nth, rep)
	}
	if rep := k.Mem.Audit(); !rep.OK() {
		t.Fatalf("physmem audit after chaos (nth=%d):\n%s", nth, rep)
	}
	if got := BugCount() - bugsBefore; got != 0 {
		t.Fatalf("%d kernel bug panics during chaos", got)
	}
	return inj.Injected(), k.Stats().OOMEvents
}

// TestChaosFaultInjection sweeps injection rates over both kernel modes.
// Surviving means: no panic, no non-OOM error, and books that balance.
func TestChaosFaultInjection(t *testing.T) {
	for _, mode := range []Mode{ModeBaseline, ModeBabelFish} {
		for _, nth := range []uint64{2, 3, 7, 31} {
			mode, nth := mode, nth
			t.Run(fmt.Sprintf("%v/nth=%d", mode, nth), func(t *testing.T) {
				inj1, oom1 := chaosRound(t, mode, nth)
				if inj1 == 0 {
					t.Fatalf("injector never fired at nth=%d", nth)
				}
				// Identical seed and workload: the failure pattern and the
				// kernel's response must replay exactly.
				inj2, oom2 := chaosRound(t, mode, nth)
				if inj1 != inj2 || oom1 != oom2 {
					t.Fatalf("nondeterministic chaos: injected %d/%d, oom %d/%d",
						inj1, inj2, oom1, oom2)
				}
			})
		}
	}
}

// TestChaosTHPBlocks exercises injected failures on 2MB block allocations
// (THP and huge-file paths) plus huge-block reclaim.
func TestChaosTHPBlocks(t *testing.T) {
	bugsBefore := BugCount()
	cfg := DefaultConfig(ModeBabelFish)
	cfg.THPMinPages = 512
	k := New(physmem.New(64<<20), cfg)
	g := k.NewGroup("app", 8)
	p := mustProc(t, k, g, "c1")
	hf := k.MustCreateHugeFile("huge", 2048)
	r := g.MustRegion("buf", SegHeap, 2048)
	p.MustMapAnon(r, rw, "buf")

	k.Mem.SetInjector(memsys.NewInjector(memsys.InjectConfig{Seed: 9, Nth: 2}))
	defer k.Mem.SetInjector(nil)
	for i := 0; i < 4; i++ {
		_, err := k.HandleFault(p.PID, p.ProcVA(r.PageVA(i*512)), true, memdefs.AccessData)
		if err != nil && !errors.Is(err, physmem.ErrOutOfMemory) {
			t.Fatalf("THP fault: %v", err)
		}
	}
	for i := 0; i < 4; i++ {
		if _, _, err := hf.HugeFrame(i); err != nil && !errors.Is(err, physmem.ErrOutOfMemory) {
			t.Fatalf("huge file frame: %v", err)
		}
	}
	k.Mem.SetInjector(nil)
	if rep := k.Audit(); !rep.OK() {
		t.Fatalf("audit after THP chaos:\n%s", rep)
	}
	if rep := k.Mem.Audit(); !rep.OK() {
		t.Fatalf("physmem audit after THP chaos:\n%s", rep)
	}
	if got := BugCount() - bugsBefore; got != 0 {
		t.Fatalf("%d kernel bug panics during THP chaos", got)
	}
}

// TestGracefulOOMWithoutInjector fills real memory: allocations must fail
// with ErrOutOfMemory (after reclaiming what's reclaimable), never panic.
func TestGracefulOOMWithoutInjector(t *testing.T) {
	cfg := DefaultConfig(ModeBaseline)
	cfg.THP = false
	k := New(physmem.New(2<<20), cfg) // 512 frames
	g := k.NewGroup("app", 9)
	p := mustProc(t, k, g, "c1")
	r := g.MustRegion("heap", SegHeap, 1024)
	p.MustMapAnon(r, rw, "heap")
	var sawOOM bool
	for i := 0; i < 1024; i++ {
		if _, err := k.HandleFault(p.PID, p.ProcVA(r.PageVA(i)), true, memdefs.AccessData); err != nil {
			if !errors.Is(err, physmem.ErrOutOfMemory) {
				t.Fatalf("fault %d: %v", i, err)
			}
			sawOOM = true
			break
		}
	}
	if !sawOOM {
		t.Fatal("1024 write faults fit in 512 frames without OOM")
	}
	if k.Stats().OOMEvents == 0 {
		t.Fatal("OOMEvents not counted")
	}
	if rep := k.Audit(); !rep.OK() {
		t.Fatalf("audit after real OOM:\n%s", rep)
	}
}
