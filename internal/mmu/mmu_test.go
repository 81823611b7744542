package mmu

import (
	"errors"
	"testing"

	"babelfish/internal/cache"
	"babelfish/internal/dram"
	"babelfish/internal/memdefs"
	"babelfish/internal/pgtable"
	"babelfish/internal/physmem"
	"babelfish/internal/tlb"
	"babelfish/internal/xlatpolicy"
)

// babelfishPolicy is the BabelFish translation architecture: CCID-shared
// L2 TLB entries with O-PC fills.
var babelfishPolicy = xlatpolicy.MustGet("babelfish")

// testOS is a scriptable fault handler.
type testOS struct {
	mem    *physmem.Memory
	faults int
	cost   memdefs.Cycles
	// onFault repairs the tables; returning an error aborts.
	onFault func(pid memdefs.PID, va memdefs.VAddr, write bool) error
}

func (o *testOS) HandleFault(pid memdefs.PID, va memdefs.VAddr, write bool, kind memdefs.AccessKind) (memdefs.Cycles, error) {
	o.faults++
	if o.onFault != nil {
		if err := o.onFault(pid, va, write); err != nil {
			return o.cost, err
		}
	}
	return o.cost, nil
}

type rig struct {
	mem  *physmem.Memory
	l3   *cache.Cache
	hier *cache.Hierarchy
	os   *testOS
	mmu  *MMU
	tbl  *pgtable.Tables
	ctx  Ctx
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	mem := physmem.New(64 << 20)
	d := dram.New(dram.DefaultConfig())
	l3 := cache.New(cache.DefaultL3Config(), d)
	hier := cache.NewHierarchy(cache.DefaultHierarchyConfig(), l3)
	os := &testOS{mem: mem, cost: 1000}
	m := New(cfg, mem, hier, os)
	tbl, err := pgtable.New(mem)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{mem: mem, l3: l3, hier: hier, os: os, mmu: m, tbl: tbl}
	r.ctx = Ctx{PID: 1, PCID: 1, CCID: 1, Tables: tbl}
	return r
}

func (r *rig) mapPage(t *testing.T, va memdefs.VAddr, flags pgtable.Entry) memdefs.PPN {
	t.Helper()
	frame := r.mem.MustAlloc(physmem.FrameData)
	if err := r.tbl.Map4K(va, frame, flags|pgtable.FlagUser); err != nil {
		t.Fatal(err)
	}
	return frame
}

func TestTranslateHitPath(t *testing.T) {
	r := newRig(t, Config{})
	va := memdefs.VAddr(0x40001000)
	frame := r.mapPage(t, va, pgtable.FlagWrite)

	// First access: L1/L2 miss, full walk.
	ppn, cyc1, info, err := r.mmu.Translate(&r.ctx, va, false, memdefs.AccessData)
	if err != nil {
		t.Fatal(err)
	}
	if ppn != frame {
		t.Fatalf("ppn = %d, want %d", ppn, frame)
	}
	if info.Level != "walk" {
		t.Fatalf("first translate level %s", info.Level)
	}
	// Second: L1 hit, 1 cycle.
	_, cyc2, info, err := r.mmu.Translate(&r.ctx, va, false, memdefs.AccessData)
	if err != nil {
		t.Fatal(err)
	}
	if info.Level != "L1" || cyc2 != 1 {
		t.Fatalf("second translate: level %s cyc %d", info.Level, cyc2)
	}
	if cyc1 <= cyc2 {
		t.Fatalf("walk (%d) not slower than L1 hit (%d)", cyc1, cyc2)
	}
	st := r.mmu.Stats()
	if st.Walks != 1 || st.L1Hits != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestTranslateFaultRepairRetry(t *testing.T) {
	r := newRig(t, Config{})
	va := memdefs.VAddr(0x7000_0000)
	var frame memdefs.PPN
	r.os.onFault = func(pid memdefs.PID, fva memdefs.VAddr, write bool) error {
		if fva != va {
			t.Fatalf("fault va %#x, want %#x", fva, va)
		}
		frame = r.mem.MustAlloc(physmem.FrameData)
		return r.tbl.Map4K(va, frame, pgtable.FlagUser)
	}
	ppn, cyc, info, err := r.mmu.Translate(&r.ctx, va, false, memdefs.AccessData)
	if err != nil {
		t.Fatal(err)
	}
	if ppn != frame || info.Faults != 1 || r.os.faults != 1 {
		t.Fatalf("ppn=%d faults=%d", ppn, info.Faults)
	}
	if cyc < 1000 {
		t.Fatalf("fault cost not charged: %d", cyc)
	}
}

func TestTranslateRetryLimit(t *testing.T) {
	r := newRig(t, Config{})
	r.os.onFault = func(memdefs.PID, memdefs.VAddr, bool) error { return nil } // never repairs
	_, _, _, err := r.mmu.Translate(&r.ctx, 0x9000, false, memdefs.AccessData)
	if !errors.Is(err, ErrRetries) {
		t.Fatalf("err = %v, want retry limit", err)
	}
}

func TestCoWWriteFaults(t *testing.T) {
	r := newRig(t, Config{})
	va := memdefs.VAddr(0x50000000)
	frame := r.mem.MustAlloc(physmem.FrameData)
	if err := r.tbl.Map4K(va, frame, pgtable.FlagUser|pgtable.FlagCoW); err != nil {
		t.Fatal(err)
	}
	// Read: fine.
	if _, _, _, err := r.mmu.Translate(&r.ctx, va, false, memdefs.AccessData); err != nil {
		t.Fatal(err)
	}
	// Write: CoW fault; OS upgrades the entry.
	r.os.onFault = func(pid memdefs.PID, fva memdefs.VAddr, write bool) error {
		if !write {
			t.Fatal("CoW fault reported as read")
		}
		return r.tbl.Map4K(va, frame, pgtable.FlagUser|pgtable.FlagWrite)
	}
	_, _, _, err := r.mmu.Translate(&r.ctx, va, true, memdefs.AccessData)
	if err != nil {
		t.Fatal(err)
	}
	if r.os.faults != 1 {
		t.Fatalf("faults = %d", r.os.faults)
	}
}

func TestProtectionErrors(t *testing.T) {
	r := newRig(t, Config{})
	va := memdefs.VAddr(0x60000000)
	frame := r.mem.MustAlloc(physmem.FrameData)
	// Read-only, no-exec page (not CoW).
	if err := r.tbl.Map4K(va, frame, pgtable.FlagUser|pgtable.FlagNX); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := r.mmu.Translate(&r.ctx, va, true, memdefs.AccessData); !errors.Is(err, ErrProtection) {
		t.Fatalf("write err = %v", err)
	}
	if _, _, _, err := r.mmu.Translate(&r.ctx, va, false, memdefs.AccessInstr); !errors.Is(err, ErrProtection) {
		t.Fatalf("exec err = %v", err)
	}
}

func TestBabelFishCrossProcessL2Sharing(t *testing.T) {
	r := newRig(t, Config{Policy: babelfishPolicy, ASLRHW: true})
	va := memdefs.VAddr(0x40002000)
	r.mapPage(t, va, 0)

	// Process 1 walks and fills L1+L2.
	if _, _, _, err := r.mmu.Translate(&r.ctx, va, false, memdefs.AccessData); err != nil {
		t.Fatal(err)
	}
	// Process 2 (same CCID group, same tables — fork-shared) must hit L2.
	ctx2 := r.ctx
	ctx2.PID, ctx2.PCID = 2, 2
	_, cyc, info, err := r.mmu.Translate(&ctx2, va, false, memdefs.AccessData)
	if err != nil {
		t.Fatal(err)
	}
	if info.Level != "L2" || !info.SharedL2 {
		t.Fatalf("process 2: level=%s shared=%v", info.Level, info.SharedL2)
	}
	// Latency: 1 (L1 miss probe) + 2 (ASLR… no transform func set: 0) + 10 (L2).
	if cyc < 11 || cyc > 13 {
		t.Fatalf("cross-process L2 hit cost %d", cyc)
	}
	st := r.mmu.Stats()
	if st.L2SharedData != 1 {
		t.Fatalf("shared data hits = %d", st.L2SharedData)
	}
}

func TestBaselineNoCrossProcessSharing(t *testing.T) {
	r := newRig(t, Config{})
	va := memdefs.VAddr(0x40003000)
	r.mapPage(t, va, 0)
	if _, _, _, err := r.mmu.Translate(&r.ctx, va, false, memdefs.AccessData); err != nil {
		t.Fatal(err)
	}
	ctx2 := r.ctx
	ctx2.PID, ctx2.PCID = 2, 2
	_, _, info, err := r.mmu.Translate(&ctx2, va, false, memdefs.AccessData)
	if err != nil {
		t.Fatal(err)
	}
	if info.Level != "walk" {
		t.Fatalf("baseline process 2 got a %s hit", info.Level)
	}
}

func TestASLRTransformApplied(t *testing.T) {
	r := newRig(t, Config{Policy: babelfishPolicy, ASLRHW: true, ASLRXformCycles: 2})
	const off = memdefs.VAddr(0x1000000)
	gva := memdefs.VAddr(0x40004000)
	r.mapPage(t, gva, 0) // tables indexed by group VA
	r.ctx.SharedVA = func(v memdefs.VAddr) memdefs.VAddr { return v - off }

	pva := gva + off
	_, cyc, _, err := r.mmu.Translate(&r.ctx, pva, false, memdefs.AccessData)
	if err != nil {
		t.Fatal(err)
	}
	_ = cyc
	// Second access from another process at a different process VA but the
	// same group VA must hit the shared L2 entry.
	ctx2 := r.ctx
	ctx2.PID, ctx2.PCID = 2, 2
	const off2 = memdefs.VAddr(0x3000000)
	ctx2.SharedVA = func(v memdefs.VAddr) memdefs.VAddr { return v - off2 }
	_, _, info, err := r.mmu.Translate(&ctx2, gva+off2, false, memdefs.AccessData)
	if err != nil {
		t.Fatal(err)
	}
	if info.Level != "L2" {
		t.Fatalf("ASLR-HW cross-layout hit level %s", info.Level)
	}
}

func TestHugePageTranslate(t *testing.T) {
	r := newRig(t, Config{})
	va := memdefs.VAddr(0x80000000) // 2MB aligned
	base, err := r.mem.AllocBlock(physmem.FrameData)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.tbl.Map2M(va, base, pgtable.FlagUser|pgtable.FlagWrite); err != nil {
		t.Fatal(err)
	}
	probe := va + 7*memdefs.PageSize + 0x34
	ppn, _, info, err := r.mmu.Translate(&r.ctx, probe, false, memdefs.AccessData)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != memdefs.Page2M {
		t.Fatalf("size %v", info.Size)
	}
	if ppn != base+7 {
		t.Fatalf("huge ppn = %d, want %d", ppn, base+7)
	}
	// L1 hit path computes the same offset.
	ppn2, _, _, err := r.mmu.Translate(&r.ctx, probe, false, memdefs.AccessData)
	if err != nil || ppn2 != ppn {
		t.Fatalf("L1 huge hit ppn = %d err=%v", ppn2, err)
	}
}

func TestAccessedDirtySetByWalk(t *testing.T) {
	r := newRig(t, Config{})
	va := memdefs.VAddr(0x40005000)
	r.mapPage(t, va, pgtable.FlagWrite)
	if _, _, _, err := r.mmu.Translate(&r.ctx, va, true, memdefs.AccessData); err != nil {
		t.Fatal(err)
	}
	e := r.tbl.GetEntry(va, memdefs.LvlPTE)
	if e&pgtable.FlagAccess == 0 || e&pgtable.FlagDirty == 0 {
		t.Fatalf("A/D not set: %#x", uint64(e))
	}
}

func TestInvalidateVA(t *testing.T) {
	r := newRig(t, Config{Policy: babelfishPolicy, ASLRHW: true})
	va := memdefs.VAddr(0x40006000)
	r.mapPage(t, va, 0)
	if _, _, _, err := r.mmu.Translate(&r.ctx, va, false, memdefs.AccessData); err != nil {
		t.Fatal(err)
	}
	r.mmu.InvalidateVA(va)
	_, _, info, err := r.mmu.Translate(&r.ctx, va, false, memdefs.AccessData)
	if err != nil {
		t.Fatal(err)
	}
	if info.Level != "walk" {
		t.Fatalf("after invalidate, hit at %s", info.Level)
	}
}

func TestPWCSharedAcrossProcessesOnCore(t *testing.T) {
	// Two processes sharing page tables reuse each other's PWC entries;
	// with private tables they cannot.
	r := newRig(t, Config{Policy: babelfishPolicy, ASLRHW: true})
	va := memdefs.VAddr(0x40007000)
	r.mapPage(t, va, 0)
	if _, _, _, err := r.mmu.Translate(&r.ctx, va, false, memdefs.AccessData); err != nil {
		t.Fatal(err)
	}
	before := r.mmu.PWC.Stats().Hits
	// Second process, same tables, L2 entry invalidated to force a walk.
	r.mmu.L2.FlushAll()
	ctx2 := r.ctx
	ctx2.PID, ctx2.PCID = 2, 2
	if _, _, _, err := r.mmu.Translate(&ctx2, va, false, memdefs.AccessData); err != nil {
		t.Fatal(err)
	}
	if r.mmu.PWC.Stats().Hits <= before {
		t.Fatal("no PWC reuse across processes sharing tables")
	}
}

func TestGiantPageTranslate(t *testing.T) {
	// 1GB mappings: leaf at the PUD level, served by the 1GB TLB
	// structures (16-entry L2, 4-entry fully-associative L1D).
	r := newRig(t, Config{Policy: babelfishPolicy, ASLRHW: true})
	va := memdefs.VAddr(1) << 30 // 1GB aligned
	// Fake a 1GB leaf: a PUD entry with PS set pointing at a frame base.
	base := r.mem.MustAlloc(physmem.FrameData)
	pud, err := r.tbl.EnsureTable(va, memdefs.LvlPUD)
	if err != nil {
		t.Fatal(err)
	}
	r.mem.WriteEntry(pud, memdefs.LvlPUD.Index(va),
		uint64(pgtable.MakeEntry(base, pgtable.FlagPresent|pgtable.FlagPS|pgtable.FlagUser|pgtable.FlagWrite)))

	probe := va + 123*memdefs.PageSize + 7
	ppn, _, info, err := r.mmu.Translate(&r.ctx, probe, false, memdefs.AccessData)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != memdefs.Page1G {
		t.Fatalf("size = %v", info.Size)
	}
	if ppn != base+123 {
		t.Fatalf("ppn = %d, want %d", ppn, base+123)
	}
	// The 1GB entry now lives in the TLBs: an L1 hit resolves the next
	// probe at a different offset.
	probe2 := va + 100_000*memdefs.PageSize
	ppn2, cyc, info2, err := r.mmu.Translate(&r.ctx, probe2, false, memdefs.AccessData)
	if err != nil {
		t.Fatal(err)
	}
	if info2.Level != "L1" || cyc != 1 {
		t.Fatalf("second 1G probe: level=%s cyc=%d", info2.Level, cyc)
	}
	if ppn2 != base+100_000 {
		t.Fatalf("ppn2 = %d", ppn2)
	}
}

func TestWalkStatsAttribution(t *testing.T) {
	r := newRig(t, Config{})
	va := memdefs.VAddr(0x40008000)
	r.mapPage(t, va, 0)
	if _, _, _, err := r.mmu.Translate(&r.ctx, va, false, memdefs.AccessData); err != nil {
		t.Fatal(err)
	}
	st := r.mmu.Stats()
	// A cold 4-level walk issues 4 memory requests (no PWC hits), all
	// ultimately from DRAM through the hierarchy.
	if got := st.WalkReqMem + st.WalkReqL3 + st.WalkReqL2; got != 4 {
		t.Fatalf("walk memory requests = %d, want 4", got)
	}
	if st.WalkReqPWC != 0 {
		t.Fatalf("cold walk claimed %d PWC hits", st.WalkReqPWC)
	}
	// Second walk for a neighbouring page: upper levels now hit the PWC.
	r.mapPage(t, va+memdefs.PageSize, 0)
	r.mmu.L2.FlushAll()
	r.mmu.L1D.FlushAll()
	if _, _, _, err := r.mmu.Translate(&r.ctx, va+memdefs.PageSize, false, memdefs.AccessData); err != nil {
		t.Fatal(err)
	}
	if r.mmu.Stats().WalkReqPWC != 3 {
		t.Fatalf("warm walk PWC hits = %d, want 3", r.mmu.Stats().WalkReqPWC)
	}
}

// TestZeroConfigIsBaseline: the zero Config's Arch behaves as the
// baseline — PCID-tagged L1 and L2 groups and no policy core — while the
// BabelFish arch under ASLR-HW tags its L2 by CCID.
func TestZeroConfigIsBaseline(t *testing.T) {
	modes := func(g *tlb.Group) (m []tlb.Mode) {
		for _, s := range g.BydSize {
			if s != nil {
				m = append(m, s.Config().Mode)
			}
		}
		return m
	}
	r := newRig(t, Config{})
	for _, g := range []*tlb.Group{r.mmu.L1D, r.mmu.L1I, r.mmu.L2} {
		for _, m := range modes(g) {
			if m != tlb.TagPCID {
				t.Errorf("zero Config: %s has a %v structure, want all %v", g.Name(), m, tlb.TagPCID)
			}
		}
	}
	if r.mmu.PolicyCore() != nil {
		t.Error("zero Config built a policy core")
	}
	bf := newRig(t, Config{Policy: babelfishPolicy, ASLRHW: true})
	for _, m := range modes(bf.mmu.L2) {
		if m != tlb.TagCCID {
			t.Errorf("babelfish L2 has a %v structure, want %v", m, tlb.TagCCID)
		}
	}
}
