package kernel

import (
	"testing"

	"babelfish/internal/memdefs"
	"babelfish/internal/pgtable"
	"babelfish/internal/physmem"
)

// TestForkFromDivergedParent forks from a parent that already owns a
// private PTE table (post-CoW): the child leaves sharing for that region
// as the parent did, claiming its own PC bit, and receives the parent's
// entries in a private table of its own. The group's shared table, and
// with it every sibling's view, stays as it was.
func TestForkFromDivergedParent(t *testing.T) {
	for _, level := range []memdefs.Level{memdefs.LvlPTE, memdefs.LvlPMD} {
		cfg := DefaultConfig(ModeBabelFish)
		cfg.THP = false
		cfg.ShareLevel = level
		k := New(physmem.New(256<<20), cfg)
		g := k.NewGroup("app", 3)
		p1 := mustProc(t, k, g, "c1")
		f := k.MustCreateFile("bin", 16)
		r := g.MustRegion("data", SegData, 16)
		p1.MustMapFile(r, f, 0, rw, true, "data")
		p2, _, err := k.Fork(p1, "c2")
		if err != nil {
			t.Fatal(err)
		}
		// Populate and diverge: p2 writes page 0, keeping pages 1.. shared.
		gva0, gva1 := r.Start, r.Start+memdefs.PageSize
		mustFault(t, k, p1, gva0, false)
		mustFault(t, k, p1, gva1, false)
		mustFault(t, k, p2, gva0, true) // p2 owns the region now
		p1Frame := leaf(t, p1, gva0).PPN()

		// Fork a grandchild from the DIVERGED p2.
		p3, _, err := k.Fork(p2, "c3")
		if err != nil {
			t.Fatal(err)
		}
		if rep := k.Audit(); !rep.OK() {
			t.Fatalf("[share %v] after the fork: %s", level, rep)
		}
		if got := leaf(t, p1, gva0).PPN(); got != p1Frame {
			t.Fatalf("[share %v] sibling p1 now maps frame %d at gva0, want its own frame %d", level, got, p1Frame)
		}
		mp, _ := g.maskPageFor(memdefs.PageVPN(gva0), false)
		if mp == nil {
			t.Fatalf("[share %v] no MaskPage for the diverged region", level)
		}
		if bit, ok := mp.bitOf(p3.PID); !ok || mp.MaskAt(memdefs.LvlPMD.Index(gva0))&(1<<uint(bit)) == 0 {
			t.Fatalf("[share %v] grandchild holds no PC bit for the region it received private copies of (bit %d, assigned %v)", level, bit, ok)
		}
		// p3 sees p2's written page content (same frame, CoW both sides).
		e2, e3 := leaf(t, p2, gva0), leaf(t, p3, gva0)
		if !e3.Present() || e3.PPN() != e2.PPN() {
			t.Fatalf("[share %v] grandchild does not share parent's private page: %#x vs %#x", level, uint64(e3), uint64(e2))
		}
		if e2.Writable() || e3.Writable() {
			t.Fatalf("[share %v] private page not CoW-protected after fork", level)
		}
		// Grandchild writes: gets its own frame, p2's stays.
		mustFault(t, k, p3, gva0, true)
		if leaf(t, p3, gva0).PPN() == leaf(t, p2, gva0).PPN() {
			t.Fatalf("[share %v] grandchild CoW did not copy", level)
		}
		// The clean page still maps the frame every sibling maps.
		mustFault(t, k, p3, gva1, false)
		if leaf(t, p3, gva1).PPN() != leaf(t, p1, gva1).PPN() {
			t.Fatalf("[share %v] grandchild lost the clean shared page", level)
		}
		if rep := k.Audit(); !rep.OK() {
			t.Fatalf("[share %v] after the grandchild's writes: %s", level, rep)
		}
	}
}

// TestForkSweepDowngradesTemplateWrites: a sole-member template writes
// into shared tables with full permissions; the first fork must downgrade
// those entries to CoW so the child cannot see future parent writes.
func TestForkSweepDowngradesTemplateWrites(t *testing.T) {
	k := newKernel(t, ModeBabelFish)
	g := k.NewGroup("app", 4)
	tmpl := mustProc(t, k, g, "tmpl")
	r := g.MustRegion("heap", SegHeap, 8)
	tmpl.MustMapAnon(r, rw, "heap")
	mustFault(t, k, tmpl, r.Start, true)
	if !leaf(t, tmpl, r.Start).Writable() {
		t.Fatal("sole member's write not writable")
	}
	if _, _, err := k.Fork(tmpl, "c1"); err != nil {
		t.Fatal(err)
	}
	e := leaf(t, tmpl, r.Start)
	if e.Writable() || !e.CoW() {
		t.Fatalf("fork sweep did not downgrade: %#x", uint64(e))
	}
}

// TestForkCostsScaleWithState: forking a populated baseline process costs
// more than forking an empty one (per-entry copy cost), while BabelFish's
// fork cost is per-table (links), not per-entry.
func TestForkCostsScaleWithState(t *testing.T) {
	costOf := func(mode Mode, pages int) memdefs.Cycles {
		k := newKernel(t, mode)
		g := k.NewGroup("app", 5)
		p := mustProc(t, k, g, "tmpl")
		f := k.MustCreateFile("data", pages)
		r := g.MustRegion("data", SegMmap, pages)
		p.MustMapFile(r, f, 0, ro, true, "data")
		for i := 0; i < pages; i++ {
			mustFault(t, k, p, r.Start+memdefs.VAddr(i)*memdefs.PageSize, false)
		}
		_, c, err := k.Fork(p, "child")
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	baseSmall, baseBig := costOf(ModeBaseline, 64), costOf(ModeBaseline, 1024)
	bfSmall, bfBig := costOf(ModeBabelFish, 64), costOf(ModeBabelFish, 1024)
	if baseBig <= baseSmall {
		t.Fatalf("baseline fork cost flat: %d vs %d", baseSmall, baseBig)
	}
	// BabelFish links tables: 1024 pages = 2-3 tables, nearly flat.
	if bfBig-bfSmall >= (baseBig-baseSmall)/4 {
		t.Fatalf("BabelFish fork not cheap: Δbf=%d Δbase=%d", bfBig-bfSmall, baseBig-baseSmall)
	}
}

// TestTableCensusDedupsSharedTables.
func TestTableCensusDedupsSharedTables(t *testing.T) {
	k := newKernel(t, ModeBabelFish)
	g := k.NewGroup("app", 6)
	p1 := mustProc(t, k, g, "c1")
	f := k.MustCreateFile("lib", 16)
	r := g.MustRegion("lib", SegLibs, 16)
	p1.MustMapFile(r, f, 0, rx, true, "lib")
	mustFault(t, k, p1, r.Start, false)
	before := k.TableCensus()
	p2, _, err := k.Fork(p1, "c2")
	if err != nil {
		t.Fatal(err)
	}
	mustFault(t, k, p2, r.Start, false)
	after := k.TableCensus()
	// The child added its own PGD/PUD/PMD path but shares the PTE table.
	if after[memdefs.LvlPTE] != before[memdefs.LvlPTE] {
		t.Fatalf("PTE tables grew: %d -> %d", before[memdefs.LvlPTE], after[memdefs.LvlPTE])
	}
	if after[memdefs.LvlPGD] != before[memdefs.LvlPGD]+1 {
		t.Fatalf("PGD count wrong: %d -> %d", before[memdefs.LvlPGD], after[memdefs.LvlPGD])
	}
}

// TestMaskPageRegionsIndependent: CoW events in different 1GB regions use
// different MaskPages and may assign the same bit to different processes.
func TestMaskPageRegionsIndependent(t *testing.T) {
	k := newKernel(t, ModeBabelFish)
	g := k.NewGroup("app", 7)
	tmpl := mustProc(t, k, g, "tmpl")
	f := k.MustCreateFile("bin", 32)
	// Two regions 1GB apart via a chunked region.
	r := g.MustChunkedRegion("data", SegData, 32, 16, 1<<30)
	mapChunksForTest(tmpl, r, f)
	c1, _, err := k.Fork(tmpl, "c1")
	if err != nil {
		t.Fatal(err)
	}
	c2, _, err := k.Fork(tmpl, "c2")
	if err != nil {
		t.Fatal(err)
	}
	gvaA := r.PageVA(0)  // region A
	gvaB := r.PageVA(16) // region B (1GB away)
	mustFault(t, k, c1, gvaA, false)
	mustFault(t, k, c2, gvaB, false)
	// c1 writes in region A only; c2 writes in region B only.
	mustFault(t, k, c1, gvaA, true)
	mustFault(t, k, c2, gvaB, true)
	mpA, _ := g.maskPageFor(memdefs.PageVPN(gvaA), false)
	mpB, _ := g.maskPageFor(memdefs.PageVPN(gvaB), false)
	if mpA == nil || mpB == nil || mpA == mpB {
		t.Fatal("regions share a MaskPage")
	}
	bitA, okA := mpA.bitOf(c1.PID)
	bitB, okB := mpB.bitOf(c2.PID)
	if !okA || !okB {
		t.Fatal("writers missing bits")
	}
	// Both writers are first in their own MaskPage: both get bit 0.
	if bitA != 0 || bitB != 0 {
		t.Fatalf("bits = %d/%d, want 0/0 (per-region assignment)", bitA, bitB)
	}
	if _, ok := mpA.bitOf(c2.PID); ok {
		t.Fatal("c2 has a bit in region A without writing there")
	}
}

func mapChunksForTest(p *Process, r Region, f *File) {
	for c, start := range r.ChunkStarts {
		n := r.ChunkPages
		if (c+1)*r.ChunkPages > r.Pages {
			n = r.Pages - c*r.ChunkPages
		}
		sub := Region{Name: r.Name, Seg: r.Seg, Start: start, Pages: n}
		p.MustMapFile(sub, f, c*r.ChunkPages, memdefs.PermRead|memdefs.PermWrite|memdefs.PermUser, true, "chunk")
	}
}

// TestCoWBreakHuge: a THP block written before a fork is CoW on both
// sides. The child's write copies it to a fresh 2MB block, dropping the
// old block back to one reference; the parent's write then upgrades its
// entry in place. Teardown leaves only the zero page.
func TestCoWBreakHuge(t *testing.T) {
	for _, mode := range []Mode{ModeBaseline, ModeBabelFish} {
		cfg := DefaultConfig(mode)
		cfg.THPMinPages = 512
		k := New(physmem.New(64<<20), cfg)
		base := k.Mem.Allocated() // the zero page
		g := k.NewGroup("app", 5)
		parent := mustProc(t, k, g, "parent")
		r := g.MustRegion("thp", SegHeap, 512)
		if v := parent.MustMapAnon(r, rw, "thp"); !v.Huge {
			t.Fatalf("[%v] region not mapped huge", mode)
		}
		gva := r.Start + 5*memdefs.PageSize
		huge := func(p *Process) pgtable.Entry { return p.Tables.GetEntry(r.Start, memdefs.LvlPMD) }
		mustFault(t, k, parent, gva, true)
		old := huge(parent).PPN()

		child, _, err := k.Fork(parent, "child")
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range []pgtable.Entry{huge(parent), huge(child)} {
			if !e.Huge() || e.Writable() || !e.CoW() || e.PPN() != old {
				t.Fatalf("[%v] entry after fork %#x, want read-only CoW on block %d", mode, uint64(e), old)
			}
		}
		if got := k.Mem.Refs(old); got != 2 {
			t.Fatalf("[%v] block refs after fork %d, want 2", mode, got)
		}
		cows := k.Stats().CoWFaults

		mustFault(t, k, child, gva, true)
		ce := huge(child)
		if !ce.Huge() || !ce.Writable() || ce.CoW() || ce.PPN() == old || ce.PPN()%memdefs.TableSize != 0 {
			t.Fatalf("[%v] child entry after write %#x, want a writable copy in a fresh 2MB block", mode, uint64(ce))
		}
		if got := k.Mem.Refs(old); got != 1 {
			t.Fatalf("[%v] old block refs after the child's copy %d, want 1", mode, got)
		}

		mustFault(t, k, parent, gva, true)
		if pe := huge(parent); !pe.Writable() || pe.CoW() || pe.PPN() != old {
			t.Fatalf("[%v] parent entry after write %#x, want block %d upgraded in place", mode, uint64(pe), old)
		}
		if got := k.Stats().CoWFaults - cows; got != 2 {
			t.Fatalf("[%v] %d CoW faults, want 2", mode, got)
		}
		if rep := k.Audit(); !rep.OK() {
			t.Fatalf("[%v] %s", mode, rep)
		}
		if rep := k.Mem.Audit(); !rep.OK() {
			t.Fatalf("[%v] %s", mode, rep)
		}
		child.Exit()
		parent.Exit()
		if got := k.Mem.Allocated(); got != base {
			t.Fatalf("[%v] %d frames allocated after teardown, want %d (the zero page)", mode, got, base)
		}
	}
}

// TestPMDPrivateCopyKeepsSharedPTE: under PMD-level sharing, a process's
// private PMD table copy still links the group's shared PTE tables for
// the regions it has not written. A private write into such a region must
// take a private PTE table first, not install its fresh frame into the
// table every sibling maps.
func TestPMDPrivateCopyKeepsSharedPTE(t *testing.T) {
	cfg := DefaultConfig(ModeBabelFish)
	cfg.THP = false
	cfg.ShareLevel = memdefs.LvlPMD
	k := New(physmem.New(256<<20), cfg)
	g := k.NewGroup("app", 4)
	p1 := mustProc(t, k, g, "c1")
	f := k.MustCreateFile("bin", 16)
	rd := g.MustRegion("data", SegData, 16)
	p1.MustMapFile(rd, f, 0, rw, true, "data")
	rh := g.MustRegion("heap", SegData, 16)
	p1.MustMapAnon(rh, rw, "heap")
	if regionKey1G(rd.Start) != regionKey1G(rh.Start) || regionKey2M(rd.Start) == regionKey2M(rh.Start) {
		t.Fatalf("regions %#x and %#x must share a 1GB region and not a 2MB one", rd.Start, rh.Start)
	}
	p2, _, err := k.Fork(p1, "c2")
	if err != nil {
		t.Fatal(err)
	}
	mustFault(t, k, p1, rd.Start, false)
	mustFault(t, k, p1, rh.Start, false)
	// p2's CoW write privatizes its PMD table; the heap's PTE table stays
	// the group's.
	mustFault(t, k, p2, rd.Start, true)
	before := leaf(t, p1, rh.Start+memdefs.PageSize)
	mustFault(t, k, p2, rh.Start+memdefs.PageSize, true)
	if rep := k.Audit(); !rep.OK() {
		t.Fatalf("after p2's heap write: %s", rep)
	}
	if got := leaf(t, p1, rh.Start+memdefs.PageSize); got != before {
		t.Fatalf("sibling p1's leaf changed from %#x to %#x on p2's private write", uint64(before), uint64(got))
	}
	if e := leaf(t, p2, rh.Start+memdefs.PageSize); !e.Present() || !e.Writable() || !e.Owned() {
		t.Fatalf("writer's heap leaf %#x, want present, writable and owned", uint64(e))
	}
	mustFault(t, k, p2, rh.Start, false)
	if leaf(t, p1, rh.Start).PPN() != leaf(t, p2, rh.Start).PPN() {
		t.Fatal("unwritten heap page diverged")
	}
}
