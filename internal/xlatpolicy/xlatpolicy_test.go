package xlatpolicy

import (
	"sort"
	"strings"
	"testing"

	"babelfish/internal/memdefs"
	"babelfish/internal/pgtable"
	"babelfish/internal/physmem"
	"babelfish/internal/tlb"
)

// TestRegistryBuiltins pins the registration set and order: the order
// drives CLI usage strings and the arch-compare sweep's columns, so a
// reshuffle is an interface change.
func TestRegistryBuiltins(t *testing.T) {
	want := []string{
		"baseline", "babelfish", "victima", "coalesced",
		"babelfish+victima", "babelfish+coalesced",
	}
	got := Names()
	if len(got) < len(want) {
		t.Fatalf("Names() = %v, want at least %v", got, want)
	}
	for i, name := range want {
		if got[i] != name {
			t.Fatalf("Names()[%d] = %q, want %q (full: %v)", i, got[i], name, got)
		}
	}
	for _, name := range want {
		a, ok := Get(name)
		if !ok {
			t.Fatalf("Get(%q) not found", name)
		}
		if a.Name != name || a.Policy.Name() != name {
			t.Errorf("Get(%q): Arch.Name=%q Policy.Name()=%q", name, a.Name, a.Policy.Name())
		}
		if a.Desc == "" {
			t.Errorf("Get(%q): empty Desc (CLI usage text)", name)
		}
	}
	if _, ok := Get("nosuch"); ok {
		t.Error("Get(nosuch) succeeded")
	}
}

func TestRegistryUsageList(t *testing.T) {
	u := UsageList("both")
	if !strings.HasSuffix(u, "|both") {
		t.Errorf("UsageList(both) = %q, want trailing |both", u)
	}
	if !strings.HasPrefix(u, "baseline|babelfish|victima|coalesced") {
		t.Errorf("UsageList = %q, want registration-order prefix", u)
	}
	n := SortedNames()
	if !sort.StringsAreSorted(n) {
		t.Errorf("SortedNames() = %v not sorted", n)
	}
}

func TestMustGetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustGet(nosuch) did not panic")
		}
	}()
	MustGet("nosuch")
}

// TestBuiltinTagModes pins the tag-mode matrix: conventional policies are
// PCID-tagged everywhere; BabelFish policies share from the L2 down under
// ASLR-HW (L1 stays private) and everywhere under ASLR-SW.
func TestBuiltinTagModes(t *testing.T) {
	cases := []struct {
		arch           string
		opc, shared    bool
		l1HW, l2HW     tlb.Mode // under ASLR-HW
		l1SW, l2SW     tlb.Mode // under ASLR-SW
		hasCore        bool
		coreCCIDTagged bool
	}{
		{"baseline", false, false, tlb.TagPCID, tlb.TagPCID, tlb.TagPCID, tlb.TagPCID, false, false},
		{"babelfish", true, true, tlb.TagPCID, tlb.TagCCID, tlb.TagCCID, tlb.TagCCID, false, false},
		{"victima", false, false, tlb.TagPCID, tlb.TagPCID, tlb.TagPCID, tlb.TagPCID, true, false},
		{"coalesced", false, false, tlb.TagPCID, tlb.TagPCID, tlb.TagPCID, tlb.TagPCID, true, false},
		{"babelfish+victima", true, true, tlb.TagPCID, tlb.TagCCID, tlb.TagCCID, tlb.TagCCID, true, true},
		{"babelfish+coalesced", true, true, tlb.TagPCID, tlb.TagCCID, tlb.TagCCID, tlb.TagCCID, true, true},
	}
	mem := physmem.New(4 << 20)
	for _, tc := range cases {
		a := MustGet(tc.arch)
		if a.OPC() != tc.opc || a.SharedKernel() != tc.shared {
			t.Errorf("%s: OPC=%v SharedKernel=%v, want %v %v",
				tc.arch, a.OPC(), a.SharedKernel(), tc.opc, tc.shared)
		}
		if l1, l2 := a.TagModes(true); l1 != tc.l1HW || l2 != tc.l2HW {
			t.Errorf("%s: TagModes(hw)=(%v,%v), want (%v,%v)", tc.arch, l1, l2, tc.l1HW, tc.l2HW)
		}
		if l1, l2 := a.TagModes(false); l1 != tc.l1SW || l2 != tc.l2SW {
			t.Errorf("%s: TagModes(sw)=(%v,%v), want (%v,%v)", tc.arch, l1, l2, tc.l1SW, tc.l2SW)
		}
		core := a.NewCore(CoreConfig{Mem: mem})
		if (core != nil) != tc.hasCore {
			t.Errorf("%s: NewCore != nil is %v, want %v", tc.arch, core != nil, tc.hasCore)
		}
		if core != nil && core.CCIDTagged() != tc.coreCCIDTagged {
			t.Errorf("%s: CCIDTagged=%v, want %v", tc.arch, core.CCIDTagged(), tc.coreCCIDTagged)
		}
	}
}

// --- Victima parked-PTE store ---

func victimaProbe(vpn memdefs.VPN, pcid memdefs.PCID) *MissProbe {
	va := vpn.Addr()
	return &MissProbe{VA: va, SVA: va, Q: &tlb.Lookup{PCID: pcid}}
}

func TestVictimaParkAndProbe(t *testing.T) {
	v := NewVictimaCore(VictimaConfig{Mode: tlb.TagPCID})
	e := tlb.Entry{Valid: true, VPN: 0x400, PPN: 77, Perm: memdefs.PermRead, PCID: 9}
	va := e.VPN.Addr()

	// A probe before any fill misses and charges the probe latency.
	if _, ok := v.ProbeMiss(victimaProbe(e.VPN, 9)); ok {
		t.Fatal("hit in an empty store")
	}
	if v.MissPenalty() <= 0 {
		t.Fatal("MissPenalty must charge the probe")
	}

	// Park on walk fill; the next probe resolves without walking.
	v.OnWalkFill(&WalkFill{VA: va, SVA: va, Size: memdefs.Page4K, Entry: &e})
	r, ok := v.ProbeMiss(victimaProbe(e.VPN, 9))
	if !ok {
		t.Fatal("parked PTE not found")
	}
	if r.Entry.PPN != e.PPN || r.Lat <= 0 {
		t.Fatalf("hit = %+v, want PPN %d and positive latency", r, e.PPN)
	}

	// Wrong PCID must not match (per-process store under TagPCID).
	if _, ok := v.ProbeMiss(victimaProbe(e.VPN, 10)); ok {
		t.Fatal("parked PTE leaked across PCIDs")
	}

	// Huge-page fills are not parked (512x reach already).
	huge := tlb.Entry{Valid: true, VPN: 0x200000 >> 12, PPN: 512, Perm: memdefs.PermRead, PCID: 9}
	v.OnWalkFill(&WalkFill{VA: huge.VPN.Addr(), SVA: huge.VPN.Addr(), Size: memdefs.Page2M, Entry: &huge})
	if occ := v.(interface{ Occupancy() int }).Occupancy(); occ != 1 {
		t.Fatalf("occupancy = %d after a huge fill, want 1 (4K only)", occ)
	}
}

func TestVictimaInvalidationSeams(t *testing.T) {
	v := NewVictimaCore(VictimaConfig{Mode: tlb.TagPCID})
	occ := func() int { return v.(interface{ Occupancy() int }).Occupancy() }
	fill := func(vpn memdefs.VPN, pcid memdefs.PCID) {
		e := tlb.Entry{Valid: true, VPN: vpn, PPN: memdefs.PPN(vpn) + 1000, Perm: memdefs.PermRead, PCID: pcid}
		v.OnWalkFill(&WalkFill{VA: vpn.Addr(), SVA: vpn.Addr(), Size: memdefs.Page4K, Entry: &e})
	}

	fill(0x10, 1)
	fill(0x11, 1)
	fill(0x12, 2)
	if occ() != 3 {
		t.Fatalf("occupancy = %d, want 3", occ())
	}
	v.InvalidateVA(memdefs.VPN(0x10).Addr())
	if occ() != 2 {
		t.Fatalf("occupancy after InvalidateVA = %d, want 2", occ())
	}
	if _, ok := v.ProbeMiss(victimaProbe(0x10, 1)); ok {
		t.Fatal("invalidated PTE still probes")
	}
	v.FlushPCID(1)
	if occ() != 1 {
		t.Fatalf("occupancy after FlushPCID(1) = %d, want 1", occ())
	}
	v.FlushAll()
	if occ() != 0 {
		t.Fatalf("occupancy after FlushAll = %d, want 0", occ())
	}
}

// --- Coalesced run store ---

// coalFixture maps a window of contiguous PTEs into a real table frame so
// OnWalkFill's neighbour scan reads live entries, then reports the fill.
type coalFixture struct {
	mem   *physmem.Memory
	table memdefs.PPN
	core  *CoalescedCore
}

func newCoalFixture(t *testing.T, mode tlb.Mode) *coalFixture {
	t.Helper()
	mem := physmem.New(4 << 20)
	table, err := mem.Alloc(physmem.FrameTable)
	if err != nil {
		t.Fatal(err)
	}
	return &coalFixture{mem: mem, table: table, core: NewCoalescedCore(CoalescedConfig{Mode: mode}, mem)}
}

const coalFlags = pgtable.FlagPresent | pgtable.FlagWrite | pgtable.FlagUser

// mapRange writes n contiguous PTEs starting at window index idx0,
// mapping basePPN+i with the given flags.
func (f *coalFixture) mapRange(idx0 int, basePPN memdefs.PPN, n int, flags pgtable.Entry) {
	for i := 0; i < n; i++ {
		f.mem.WriteEntry(f.table, idx0+i, uint64(pgtable.MakeEntry(basePPN+memdefs.PPN(i), flags)))
	}
}

// fill reports a walk completion for window index idx (VPN = baseVPN+idx).
func (f *coalFixture) fill(baseVPN memdefs.VPN, idx int, basePPN memdefs.PPN, flags pgtable.Entry) {
	pe := pgtable.Entry(f.mem.ReadEntry(f.table, idx))
	e := tlb.Entry{
		Valid: true,
		VPN:   baseVPN + memdefs.VPN(idx),
		PPN:   basePPN + memdefs.PPN(idx),
		Perm:  pe.Perm(),
		CoW:   pe.CoW(),
		Owned: pe.Owned(),
		ORPC:  pe.ORPC(),
		PCID:  1,
		CCID:  7,
	}
	f.core.OnWalkFill(&WalkFill{
		VA: e.VPN.Addr(), SVA: e.VPN.Addr(), Size: memdefs.Page4K,
		Entry: &e, Table: f.table, Index: idx,
	})
}

func coalProbe(vpn memdefs.VPN, write bool) *MissProbe {
	return &MissProbe{VA: vpn.Addr(), SVA: vpn.Addr(), Q: &tlb.Lookup{PCID: 1, CCID: 7, Write: write}}
}

func TestCoalescedRunFormation(t *testing.T) {
	f := newCoalFixture(t, tlb.TagPCID)
	// VPN base must be 8-aligned so window index == VPN low bits.
	const baseVPN = memdefs.VPN(0x500)
	f.mapRange(0, 4000, 8, coalFlags)
	f.fill(baseVPN, 3, 4000, coalFlags)

	base, length, ok := f.core.Run(baseVPN + 3)
	if !ok || base != baseVPN || length != 8 {
		t.Fatalf("Run = (%#x,%d,%v), want (%#x,8,true)", base, length, ok, baseVPN)
	}
	// Every page of the run resolves with the frame in lockstep.
	for i := 0; i < 8; i++ {
		r, ok := f.core.ProbeMiss(coalProbe(baseVPN+memdefs.VPN(i), false))
		if !ok {
			t.Fatalf("page %d of the run missed", i)
		}
		if want := memdefs.PPN(4000 + i); r.Entry.PPN != want {
			t.Fatalf("page %d: PPN = %d, want %d", i, r.Entry.PPN, want)
		}
	}
	// A page outside the run misses.
	if _, ok := f.core.ProbeMiss(coalProbe(baseVPN+8, false)); ok {
		t.Fatal("probe past the run hit")
	}
}

func TestCoalescedContiguityBrokenByGap(t *testing.T) {
	f := newCoalFixture(t, tlb.TagPCID)
	const baseVPN = memdefs.VPN(0x600)
	// Frames 0..3 contiguous, then a jump: only the half containing the
	// filled page coalesces.
	f.mapRange(0, 5000, 4, coalFlags)
	f.mapRange(4, 9000, 4, coalFlags)
	f.fill(baseVPN, 1, 5000, coalFlags)

	base, length, ok := f.core.Run(baseVPN + 1)
	if !ok || base != baseVPN || length != 4 {
		t.Fatalf("Run = (%#x,%d,%v), want (%#x,4,true)", base, length, ok, baseVPN)
	}
	if _, _, ok := f.core.Run(baseVPN + 5); ok {
		t.Fatal("pages past the discontinuity joined the run")
	}

	// A single page with non-contiguous neighbours must not form a run.
	f2 := newCoalFixture(t, tlb.TagPCID)
	f2.mem.WriteEntry(f2.table, 2, uint64(pgtable.MakeEntry(100, coalFlags)))
	f2.mem.WriteEntry(f2.table, 3, uint64(pgtable.MakeEntry(500, coalFlags)))
	f2.fill(0x700, 2, 98, coalFlags)
	if occ := f2.core.Occupancy(); occ != 0 {
		t.Fatalf("occupancy = %d for a lone page, want 0 (runs need >= 2)", occ)
	}
}

func TestCoalescedRunDroppedWholeByInvalidate(t *testing.T) {
	f := newCoalFixture(t, tlb.TagPCID)
	const baseVPN = memdefs.VPN(0x800)
	f.mapRange(0, 6000, 8, coalFlags)
	f.fill(baseVPN, 0, 6000, coalFlags)
	if f.core.Occupancy() != 1 {
		t.Fatal("run not formed")
	}

	// Unmapping ONE page of the run (a shootdown's InvalidateVA mirror)
	// must drop the whole run: one stale page poisons all of it.
	f.core.InvalidateVA((baseVPN + 5).Addr())
	if f.core.Occupancy() != 0 {
		t.Fatal("run survived the invalidation of a covered page")
	}
	for i := 0; i < 8; i++ {
		if _, ok := f.core.ProbeMiss(coalProbe(baseVPN+memdefs.VPN(i), false)); ok {
			t.Fatalf("page %d still probes after the run was dropped", i)
		}
	}
}

func TestCoalescedWriteToCoWRunFallsThrough(t *testing.T) {
	f := newCoalFixture(t, tlb.TagPCID)
	const baseVPN = memdefs.VPN(0x900)
	cow := (coalFlags &^ pgtable.FlagWrite) | pgtable.FlagCoW
	f.mapRange(0, 7000, 8, cow)
	f.fill(baseVPN, 0, 7000, cow)
	if f.core.Occupancy() != 1 {
		t.Fatal("CoW run not formed")
	}
	// Reads hit; a write must fall through to the walk so the kernel takes
	// the CoW fault with full accounting.
	if _, ok := f.core.ProbeMiss(coalProbe(baseVPN+2, false)); !ok {
		t.Fatal("read of a CoW run missed")
	}
	if _, ok := f.core.ProbeMiss(coalProbe(baseVPN+2, true)); ok {
		t.Fatal("write to a CoW run hit instead of faulting via the walk")
	}
}

func TestCoalescedSharedInvalidateKeepRule(t *testing.T) {
	// Under TagCCID, InvalidateSharedVA(va, ccid) drops runs of that group
	// only (mirroring tlb.InvalidateSharedVPN).
	f := newCoalFixture(t, tlb.TagCCID)
	const baseVPN = memdefs.VPN(0xA00)
	f.mapRange(0, 8000, 8, coalFlags)
	f.fill(baseVPN, 0, 8000, coalFlags)
	if f.core.Occupancy() != 1 {
		t.Fatal("run not formed")
	}
	f.core.InvalidateSharedVA((baseVPN + 1).Addr(), 99) // other group: kept
	if f.core.Occupancy() != 1 {
		t.Fatal("run of another CCID dropped")
	}
	f.core.InvalidateSharedVA((baseVPN + 1).Addr(), 7) // this group: dropped
	if f.core.Occupancy() != 0 {
		t.Fatal("run survived its group's shared invalidation")
	}
}

func TestCoalescedSkipsPrivateStateUnderCCID(t *testing.T) {
	// Under TagCCID only shared clean windows coalesce: an Owned or ORPC
	// PTE anywhere in the run's span blocks it (runs carry no O-PC field).
	f := newCoalFixture(t, tlb.TagCCID)
	const baseVPN = memdefs.VPN(0xB00)
	f.mapRange(0, 9000, 8, coalFlags)
	f.mem.WriteEntry(f.table, 4, uint64(pgtable.MakeEntry(9004, coalFlags|pgtable.FlagOwned)))
	f.fill(baseVPN, 2, 9000, coalFlags)

	base, length, ok := f.core.Run(baseVPN + 2)
	if !ok || base != baseVPN || length != 4 {
		t.Fatalf("Run = (%#x,%d,%v), want stop at the Owned PTE: (%#x,4,true)", base, length, ok, baseVPN)
	}

	// An Owned fill itself never coalesces.
	f2 := newCoalFixture(t, tlb.TagCCID)
	owned := coalFlags | pgtable.FlagOwned
	f2.mapRange(0, 9100, 8, owned)
	f2.fill(0xC00, 0, 9100, owned)
	if occ := f2.core.Occupancy(); occ != 0 {
		t.Fatalf("occupancy = %d for an Owned fill, want 0", occ)
	}
}

func TestCoalescedForEachValidExpandsRuns(t *testing.T) {
	f := newCoalFixture(t, tlb.TagPCID)
	const baseVPN = memdefs.VPN(0xD00)
	f.mapRange(0, 9500, 8, coalFlags)
	f.fill(baseVPN, 0, 9500, coalFlags)

	var pages []memdefs.VPN
	f.core.ForEachValid(func(sz memdefs.PageSizeClass, e *tlb.Entry) {
		if sz != memdefs.Page4K {
			t.Fatalf("run expanded to %v, want Page4K", sz)
		}
		if e.PPN != 9500+memdefs.PPN(e.VPN-baseVPN) {
			t.Fatalf("expanded page %#x has PPN %d out of lockstep", e.VPN, e.PPN)
		}
		pages = append(pages, e.VPN)
	})
	if len(pages) != 8 {
		t.Fatalf("ForEachValid yielded %d pages, want 8 (audit sees every covered page)", len(pages))
	}
}

func TestCoalescedFlushPCID(t *testing.T) {
	f := newCoalFixture(t, tlb.TagPCID)
	f.mapRange(0, 9600, 8, coalFlags)
	f.fill(0xE00, 0, 9600, coalFlags)
	if f.core.Occupancy() != 1 {
		t.Fatal("run not formed")
	}
	f.core.FlushPCID(2) // other process
	if f.core.Occupancy() != 1 {
		t.Fatal("run dropped by another PCID's flush")
	}
	f.core.FlushPCID(1)
	if f.core.Occupancy() != 0 {
		t.Fatal("run survived its own PCID flush")
	}
}
