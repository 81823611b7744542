package sim_test

import (
	"strings"
	"testing"

	"babelfish/internal/kernel"
	"babelfish/internal/memdefs"
	"babelfish/internal/sim"
	"babelfish/internal/tlb"
	"babelfish/internal/workloads"
)

// warmMachine deploys two MongoDB containers on one core and runs long
// enough to populate every TLB level.
func warmMachine(t *testing.T, mode kernel.Mode) *sim.Machine {
	t.Helper()
	p := sim.DefaultParams(mode)
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
	if err := d.PrefaultAll(); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(150_000); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestTLBAuditCleanRun: after a normal run, every cached translation in
// both architectures must be backed by a live PTE.
func TestTLBAuditCleanRun(t *testing.T) {
	for _, mode := range []kernel.Mode{kernel.ModeBaseline, kernel.ModeBabelFish} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			m := warmMachine(t, mode)
			rep := m.AuditTLBs()
			if !rep.OK() {
				t.Fatalf("TLB audit:\n%s", rep)
			}
			if rep.TLBEntriesChecked == 0 {
				t.Fatal("audit checked no TLB entries")
			}
		})
	}
}

// TestTLBAuditExitFlush: a process's entries must vanish from every TLB
// when it exits; the audit would flag any survivor as stale.
func TestTLBAuditExitFlush(t *testing.T) {
	m := warmMachine(t, kernel.ModeBabelFish)
	for _, task := range m.Tasks() {
		task.Proc.Exit()
		break
	}
	if rep := m.AuditTLBs(); !rep.OK() {
		t.Fatalf("TLB audit after exit:\n%s", rep)
	}
}

// corruptOneL2Entry mutates the first valid L2 entry via fn.
func corruptOneL2Entry(m *sim.Machine, fn func(*tlb.Entry)) bool {
	done := false
	m.Cores[0].MMU.L2.ForEachValid(func(_ memdefs.PageSizeClass, e *tlb.Entry) {
		if !done {
			fn(e)
			done = true
		}
	})
	return done
}

// TestTLBAuditDetectsCorruption: the audit must notice a cached
// translation pointing at the wrong frame, in the shared L2 (group
// addresses) and in the private L1D (process addresses) alike.
func TestTLBAuditDetectsCorruption(t *testing.T) {
	m := warmMachine(t, kernel.ModeBabelFish)
	if !corruptOneL2Entry(m, func(e *tlb.Entry) { e.PPN++ }) {
		t.Fatal("no valid L2 entry to corrupt")
	}
	if m.AuditTLBs().OK() {
		t.Fatal("audit missed a corrupted L2 PPN")
	}

	// A frame moved in place in the L1D 4KB structure, bypassing every
	// Insert/Invalidate seam — what a missed invalidation leaves behind.
	m = warmMachine(t, kernel.ModeBabelFish)
	corrupted := false
	m.Cores[0].MMU.L1D.ForEachValid(func(sz memdefs.PageSizeClass, e *tlb.Entry) {
		if !corrupted && sz == memdefs.Page4K {
			e.PPN ^= 1
			corrupted = true
		}
	})
	if !corrupted {
		t.Fatal("no valid 4KB L1D entry to corrupt")
	}
	if m.AuditTLBs().OK() {
		t.Fatal("audit missed a corrupted L1D PPN")
	}
}

// TestTLBAuditDetectsStaleTag: an entry tagged with a PCID no live
// process owns is a leftover from a missed shootdown.
func TestTLBAuditDetectsStaleTag(t *testing.T) {
	m := warmMachine(t, kernel.ModeBaseline)
	if !corruptOneL2Entry(m, func(e *tlb.Entry) { e.PCID = 4001 }) {
		t.Fatal("no valid L2 entry to corrupt")
	}
	rep := m.AuditTLBs()
	if rep.OK() {
		t.Fatal("audit missed a stale PCID tag")
	}
	found := false
	for _, v := range rep.Violations {
		if strings.Contains(v, "stale TLB entry") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a stale-entry violation, got:\n%s", rep)
	}
}
