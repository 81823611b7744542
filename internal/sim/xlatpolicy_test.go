package sim_test

import (
	"testing"

	"babelfish/internal/memdefs"
	"babelfish/internal/memsys"
	"babelfish/internal/sim"
	"babelfish/internal/tlb"
	"babelfish/internal/workloads"
	"babelfish/internal/xlatpolicy"
)

// policyArchs are the registered architectures with a per-core policy
// structure; the policy-free pair (baseline, babelfish) is covered by the
// rest of the suite.
var policyArchs = []string{"victima", "coalesced", "babelfish+victima", "babelfish+coalesced"}

// warmPolicyMachine builds a 1-core machine for a registered architecture
// and runs MongoDB co-location long enough to exercise the policy store.
func warmPolicyMachine(t *testing.T, arch string) *sim.Machine {
	t.Helper()
	p, err := sim.ParamsForArch(arch)
	if err != nil {
		t.Fatal(err)
	}
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

// deviceStat pulls one counter from a policy core's telemetry stats.
func deviceStat(t *testing.T, dev memsys.Device, name string) uint64 {
	t.Helper()
	for _, s := range dev.DeviceStats() {
		if s.Name == name {
			return s.Value
		}
	}
	t.Fatalf("device %s has no stat %q", dev.Name(), name)
	return 0
}

// TestPolicyArchCleanAudits is the acceptance gate for the new
// architectures: every policy arch runs real workloads with the kernel,
// physmem and TLB/PTE cross-check audits all clean, and the policy store
// is actually exercised (probes and hits, not a dead structure).
func TestPolicyArchCleanAudits(t *testing.T) {
	for _, arch := range policyArchs {
		arch := arch
		t.Run(arch, func(t *testing.T) {
			m := warmPolicyMachine(t, arch)
			if rep := m.Kernel.Audit(); !rep.OK() {
				t.Fatalf("kernel audit:\n%s", rep)
			}
			if rep := m.Mem.Audit(); !rep.OK() {
				t.Fatalf("physmem audit:\n%s", rep)
			}
			rep := m.AuditTLBs()
			if !rep.OK() {
				t.Fatalf("TLB audit:\n%s", rep)
			}
			pc := m.Cores[0].MMU.PolicyCore()
			if pc == nil {
				t.Fatalf("%s: no policy core", arch)
			}
			if probes := deviceStat(t, pc, "probes"); probes == 0 {
				t.Fatal("policy store never probed: the MMU seam is dead")
			}
			if hits := deviceStat(t, pc, "hits"); hits == 0 {
				t.Fatal("policy store never hit: it avoids no walks")
			}
		})
	}
}

// TestCoalescedRunsFormUnderKernel: real buddy-allocated frames are
// contiguous often enough that the run store must hold multi-page runs
// after a real workload, and every covered page must pass the PTE
// cross-check (ForEachValid feeds the audit).
func TestCoalescedRunsFormUnderKernel(t *testing.T) {
	m := warmPolicyMachine(t, "coalesced")
	cc := m.Cores[0].MMU.PolicyCore().(*xlatpolicy.CoalescedCore)
	if cc.Occupancy() == 0 {
		t.Fatal("no coalesced runs formed under a real workload")
	}
	longest := 0
	cc.ForEachValid(func(_ memdefs.PageSizeClass, e *tlb.Entry) {
		if _, length, ok := cc.Run(e.VPN); ok && length > longest {
			longest = length
		}
	})
	if longest < 2 {
		t.Fatalf("longest run = %d, want >= 2 (runs are multi-page by construction)", longest)
	}
}

// TestCoalescedShootdownDropsWholeRun: a shootdown of ONE page in a
// coalesced run must drop the whole run through the invalidation mirror,
// and the cross-check audit must stay clean afterwards.
func TestCoalescedShootdownDropsWholeRun(t *testing.T) {
	m := warmPolicyMachine(t, "coalesced")
	cc := m.Cores[0].MMU.PolicyCore().(*xlatpolicy.CoalescedCore)

	// Find a live run and shoot down a middle page of it.
	var base memdefs.VPN
	var length int
	cc.ForEachValid(func(_ memdefs.PageSizeClass, e *tlb.Entry) {
		if length >= 2 {
			return
		}
		base, length, _ = cc.Run(e.VPN)
	})
	if length < 2 {
		t.Fatal("no run to shoot down")
	}
	mid := base + memdefs.VPN(length/2)
	m.ShootdownVA(mid.Addr())
	for i := 0; i < length; i++ {
		if _, _, ok := cc.Run(base + memdefs.VPN(i)); ok {
			t.Fatalf("page %d of the run survived the shootdown of page %d", i, length/2)
		}
	}
	if rep := m.AuditTLBs(); !rep.OK() {
		t.Fatalf("TLB audit after shootdown:\n%s", rep)
	}
}

// TestCoalescedUnmapBreaksRuns: unmapping a VMA mid-run (the kernel's
// own shootdown path, not a hand-delivered invalidation) must leave no
// run covering an unmapped page — enforced by the cross-check audit,
// which walks every covered page against the live PTEs.
func TestCoalescedUnmapBreaksRuns(t *testing.T) {
	m := warmPolicyMachine(t, "coalesced")
	cc := m.Cores[0].MMU.PolicyCore().(*xlatpolicy.CoalescedCore)
	before := deviceStat(t, cc, "invalidations")

	// Find a live run and unmap the VMA backing it: runs are keyed on
	// group VPNs and tagged with the owning PCID, so the pair locates the
	// exact mapping whose teardown must break the run.
	var runVPN memdefs.VPN
	var runPCID memdefs.PCID
	found := false
	cc.ForEachValid(func(_ memdefs.PageSizeClass, e *tlb.Entry) {
		if !found {
			runVPN, runPCID, found = e.VPN, e.PCID, true
		}
	})
	if !found {
		t.Fatal("no run to unmap")
	}
	unmapped := false
	for _, task := range m.Tasks() {
		if task.Proc.PCID != runPCID {
			continue
		}
		v, ok := task.Proc.FindVMA(runVPN.Addr())
		if !ok {
			t.Fatalf("no VMA covers run page %#x in PCID %d", runVPN, runPCID)
		}
		if _, err := task.Proc.Unmap(v); err != nil {
			t.Fatal(err)
		}
		unmapped = true
		break
	}
	if !unmapped {
		t.Fatalf("no live task owns PCID %d", runPCID)
	}
	if rep := m.AuditTLBs(); !rep.OK() {
		t.Fatalf("TLB audit after unmap:\n%s", rep)
	}
	if after := deviceStat(t, cc, "invalidations"); after == before {
		t.Fatal("unmap dropped no runs: the invalidation mirror is dead (or the VMA was never coalesced; widen the workload)")
	}
}

// TestCoalescedCoWBreakSplitsRun: a write to one page of a CoW run must
// take the CoW fault via the walk (the store refuses the write), and the
// break's shootdown must split the run — no run may cover the rewritten
// page afterwards, with the cross-check audit as the oracle.
func TestCoalescedCoWBreakSplitsRun(t *testing.T) {
	// Build a parent with present, contiguous, dirty private pages, then
	// fork: classic CoW arming write-protects whole windows at once, so
	// re-walked pages coalesce into runs with cow=true. (Container spawns
	// fork an empty template, and zero-fill CoW pages all share the one
	// zero frame — neither can ever form a PPN-lockstep run.)
	p, err := sim.ParamsForArch("coalesced")
	if err != nil {
		t.Fatal(err)
	}
	p.Cores = 1
	p.MemBytes = 512 << 20
	m := sim.New(p)
	d, err := workloads.Deploy(m, workloads.GraphChi(), 0.25, 42)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Spawn(0, 7); err != nil {
		t.Fatal(err)
	}
	if err := d.PrefaultAll(); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(100_000); err != nil {
		t.Fatal(err)
	}
	task := m.Tasks()[0]
	parent := task.Proc
	if _, _, err := m.Kernel.Fork(parent, "cow-child"); err != nil {
		t.Fatal(err)
	}

	// Touch the parent's private writable pages read-only so the CoW-armed
	// PTEs walk back into the TLBs and the run store.
	mmu0 := m.Cores[0].MMU
	for _, v := range parent.VMAs() {
		if !v.Private || !v.Perm.CanWrite() {
			continue
		}
		for gva := v.Start; gva < v.End; gva += memdefs.PageSize {
			if _, _, err := mmu0.TranslateInto(task.Ctx(), parent.ProcVA(gva), false, memdefs.AccessData, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	cc := mmu0.PolicyCore().(*xlatpolicy.CoalescedCore)
	var base memdefs.VPN
	var length int
	cc.ForEachValid(func(_ memdefs.PageSizeClass, e *tlb.Entry) {
		if length >= 2 || !e.CoW || e.PCID != parent.PCID {
			return
		}
		base, length, _ = cc.Run(e.VPN)
	})
	if length < 2 {
		t.Fatal("no CoW run formed after the fork; CoW state no longer coalesces")
	}

	// Write to a middle page: the store must refuse (CoW write), the walk
	// takes the CoW fault, and the break's shootdown must drop the run.
	mid := base + memdefs.VPN(length/2)
	if _, _, err := mmu0.TranslateInto(task.Ctx(), parent.ProcVA(mid.Addr()), true, memdefs.AccessData, nil); err != nil {
		t.Fatalf("CoW write faulted fatally: %v", err)
	}
	if _, _, ok := cc.Run(mid); ok {
		t.Fatal("a run still covers the page after its CoW break")
	}
	if rep := m.AuditTLBs(); !rep.OK() {
		t.Fatalf("TLB audit after CoW break:\n%s", rep)
	}
}

// TestPolicyStormAuditsClean runs the full kernel-mutation storm (fork,
// shootdown, teardown, recycle, OOM-reclaim — including the CoW breaks
// container starts arm) under each policy arch: the invalidation mirror
// must keep the policy stores coherent through every seam, with the
// per-page cross-check audit as the oracle.
func TestPolicyStormAuditsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("storm is slow")
	}
	for _, arch := range policyArchs {
		arch := arch
		t.Run(arch, func(t *testing.T) {
			p, err := sim.ParamsForArch(arch)
			if err != nil {
				t.Fatal(err)
			}
			p.Cores = 2
			p.MemBytes = 96 << 20
			p.Quantum = 50_000
			runStorm(t, p) // fails the test itself on any audit violation
		})
	}
}

// TestPolicyShardedIdentity: the new archs must keep the sharded-stepping
// guarantee — byte-identical results at any shard width >= 1 (classic
// serial stepping, width 0, is a different schedule by design).
func TestPolicyShardedIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("storm identity is slow")
	}
	p, err := sim.ParamsForArch("coalesced")
	if err != nil {
		t.Fatal(err)
	}
	p.Cores = 2
	p.MemBytes = 96 << 20
	p.Quantum = 50_000
	p.CoreShards = 1
	want := runStorm(t, p)
	p.CoreShards = 2
	if got := runStorm(t, p); got != want {
		t.Errorf("coalesced diverged across shard widths:\n--- width 1 ---\n%s--- width 2 ---\n%s", want, got)
	}
}
