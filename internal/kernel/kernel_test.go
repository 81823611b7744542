package kernel

import (
	"testing"

	"babelfish/internal/memdefs"
	"babelfish/internal/pgtable"
	"babelfish/internal/physmem"
)

const rwx = memdefs.PermRead | memdefs.PermWrite | memdefs.PermExec | memdefs.PermUser
const rw = memdefs.PermRead | memdefs.PermWrite | memdefs.PermUser
const rx = memdefs.PermRead | memdefs.PermExec | memdefs.PermUser
const ro = memdefs.PermRead | memdefs.PermUser

func newKernel(t *testing.T, mode Mode) *Kernel {
	t.Helper()
	cfg := DefaultConfig(mode)
	cfg.THP = false
	return New(physmem.New(256<<20), cfg)
}

func mustProc(t *testing.T, k *Kernel, g *Group, name string) *Process {
	t.Helper()
	p, err := k.CreateProcess(g, name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustFault(t *testing.T, k *Kernel, p *Process, gva memdefs.VAddr, write bool) memdefs.Cycles {
	t.Helper()
	c, err := k.HandleFault(p.PID, p.ProcVA(gva), write, memdefs.AccessData)
	if err != nil {
		t.Fatalf("fault at gva %#x (write=%v): %v", gva, write, err)
	}
	return c
}

func leaf(t *testing.T, p *Process, gva memdefs.VAddr) pgtable.Entry {
	t.Helper()
	return p.Tables.GetEntry(gva, memdefs.LvlPTE)
}

func TestFileDemandFaultInstallsSharedFrame(t *testing.T) {
	for _, mode := range []Mode{ModeBaseline, ModeBabelFish} {
		k := newKernel(t, mode)
		g := k.NewGroup("app", 1)
		p1 := mustProc(t, k, g, "c1")
		p2, _, err := k.Fork(p1, "c2")
		if err != nil {
			t.Fatal(err)
		}
		f := k.MustCreateFile("lib.so", 64)
		r := g.MustRegion("lib", SegLibs, 64)
		p1.MustMapFile(r, f, 0, rx, true, "lib")
		// Fork copied no VMAs for the lib (mapped after fork): map in p2 too.
		p2.MustMapFile(r, f, 0, rx, true, "lib")

		gva := r.Start + 3*memdefs.PageSize
		mustFault(t, k, p1, gva, false)
		mustFault(t, k, p2, gva, false)
		e1, e2 := leaf(t, p1, gva), leaf(t, p2, gva)
		if !e1.Present() || !e2.Present() {
			t.Fatalf("[%v] entries not present", mode)
		}
		if e1.PPN() != e2.PPN() {
			t.Fatalf("[%v] page cache not shared: %d vs %d", mode, e1.PPN(), e2.PPN())
		}
		if mode == ModeBabelFish {
			t1 := p1.Tables.TableAt(gva, memdefs.LvlPTE)
			t2 := p2.Tables.TableAt(gva, memdefs.LvlPTE)
			if t1 != t2 {
				t.Fatalf("BabelFish did not share the PTE table: %d vs %d", t1, t2)
			}
		} else {
			t1 := p1.Tables.TableAt(gva, memdefs.LvlPTE)
			t2 := p2.Tables.TableAt(gva, memdefs.LvlPTE)
			if t1 == t2 {
				t.Fatal("baseline shared a PTE table")
			}
		}
	}
}

func TestBabelFishSecondProcessAvoidsMinorFault(t *testing.T) {
	k := newKernel(t, ModeBabelFish)
	g := k.NewGroup("app", 1)
	p1 := mustProc(t, k, g, "c1")
	f := k.MustCreateFile("data", 128)
	r := g.MustRegion("data", SegMmap, 128)
	p1.MustMapFile(r, f, 0, ro, true, "data")

	// p1 faults 10 pages in.
	for i := 0; i < 10; i++ {
		mustFault(t, k, p1, r.Start+memdefs.VAddr(i)*memdefs.PageSize, false)
	}
	minorsBefore := k.Stats().MinorFaults

	// p2 forks and gets the table linked; it needs no faults at all for
	// those pages.
	p2, _, err := k.Fork(p1, "c2")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		gva := r.Start + memdefs.VAddr(i)*memdefs.PageSize
		if !leaf(t, p2, gva).Present() {
			t.Fatalf("page %d not visible to forked process", i)
		}
	}
	if k.Stats().MinorFaults != minorsBefore {
		t.Fatalf("fork-linked pages caused %d minor faults", k.Stats().MinorFaults-minorsBefore)
	}
}

func TestBaselineEachProcessFaults(t *testing.T) {
	k := newKernel(t, ModeBaseline)
	g := k.NewGroup("app", 1)
	p1 := mustProc(t, k, g, "c1")
	f := k.MustCreateFile("data", 128)
	r := g.MustRegion("data", SegMmap, 128)
	p1.MustMapFile(r, f, 0, ro, true, "data")
	p2, _, err := k.Fork(p1, "c2")
	if err != nil {
		t.Fatal(err)
	}
	gva := r.Start
	mustFault(t, k, p1, gva, false)
	if leaf(t, p2, gva).Present() {
		t.Fatal("baseline fork shared a translation installed after fork")
	}
	before := k.Stats().MinorFaults
	mustFault(t, k, p2, gva, false)
	if k.Stats().MinorFaults != before+1 {
		t.Fatal("baseline second process did not take its own minor fault")
	}
}

func TestMajorThenMinorFaults(t *testing.T) {
	k := newKernel(t, ModeBaseline)
	g := k.NewGroup("app", 1)
	p := mustProc(t, k, g, "c1")
	f := k.MustCreateFile("cold", 16)
	r := g.MustRegion("cold", SegMmap, 16)
	p.MustMapFile(r, f, 0, ro, true, "cold")
	c1 := mustFault(t, k, p, r.Start, false)
	if k.Stats().MajorFaults != 1 {
		t.Fatalf("major faults = %d, want 1", k.Stats().MajorFaults)
	}
	if c1 < k.Cfg.Costs.MajorDisk {
		t.Fatalf("major fault cost %d below disk latency", c1)
	}
	// Second process maps the now-warm page: minor only.
	p2, _, _ := k.Fork(p, "c2")
	_ = p2
	q := mustProc(t, k, k.NewGroup("other", 2), "other")
	r2 := q.Group.MustRegion("cold2", SegMmap, 16)
	q.MustMapFile(r2, f, 0, ro, true, "cold")
	c2 := mustFault(t, k, q, r2.Start, false)
	if k.Stats().MajorFaults != 1 {
		t.Fatalf("major faults = %d, want still 1", k.Stats().MajorFaults)
	}
	if c2 >= k.Cfg.Costs.MajorDisk {
		t.Fatalf("warm fault cost %d looks major", c2)
	}
}

func TestAnonZeroPageThenCoW(t *testing.T) {
	for _, mode := range []Mode{ModeBaseline, ModeBabelFish} {
		k := newKernel(t, mode)
		g := k.NewGroup("app", 1)
		p := mustProc(t, k, g, "c1")
		r := g.MustRegion("heap", SegHeap, 32)
		p.MustMapAnon(r, rw, "heap")

		gva := r.Start + 4*memdefs.PageSize
		mustFault(t, k, p, gva, false)
		e := leaf(t, p, gva)
		if !e.Present() || e.Writable() || !e.CoW() {
			t.Fatalf("[%v] zero-page entry wrong: %#x", mode, uint64(e))
		}
		if e.PPN() != k.zeroPPN {
			t.Fatalf("[%v] not the zero page", mode)
		}
		// Write breaks the zero CoW.
		mustFault(t, k, p, gva, true)
		e = leaf(t, p, gva)
		if !e.Writable() || e.CoW() || e.PPN() == k.zeroPPN {
			t.Fatalf("[%v] CoW break failed: %#x", mode, uint64(e))
		}
	}
}

func TestForkCoWSemantics(t *testing.T) {
	for _, mode := range []Mode{ModeBaseline, ModeBabelFish} {
		k := newKernel(t, mode)
		g := k.NewGroup("app", 1)
		p1 := mustProc(t, k, g, "parent")
		r := g.MustRegion("heap", SegHeap, 8)
		p1.MustMapAnon(r, rw, "heap")
		gva := r.Start

		// Parent writes before fork: private writable page.
		mustFault(t, k, p1, gva, true)
		parentPPN := leaf(t, p1, gva).PPN()

		p2, _, err := k.Fork(p1, "child")
		if err != nil {
			t.Fatal(err)
		}
		e1, e2 := leaf(t, p1, gva), leaf(t, p2, gva)
		if e1.Writable() || e2.Writable() {
			t.Fatalf("[%v] entries writable after fork: %#x %#x", mode, uint64(e1), uint64(e2))
		}
		if !e1.CoW() || !e2.CoW() {
			t.Fatalf("[%v] entries not CoW after fork", mode)
		}
		if e1.PPN() != parentPPN || e2.PPN() != parentPPN {
			t.Fatalf("[%v] fork changed frames", mode)
		}

		// Child writes: gets its own frame; parent's data intact.
		mustFault(t, k, p2, gva, true)
		e1, e2 = leaf(t, p1, gva), leaf(t, p2, gva)
		if e2.PPN() == e1.PPN() {
			t.Fatalf("[%v] child CoW did not copy", mode)
		}
		if !e2.Writable() {
			t.Fatalf("[%v] child entry not writable after CoW", mode)
		}

		// Parent writes: sole remaining sharer may upgrade in place.
		mustFault(t, k, p1, gva, true)
		e1b := leaf(t, p1, gva)
		if !e1b.Writable() {
			t.Fatalf("[%v] parent entry not writable after CoW", mode)
		}
		if mode == ModeBabelFish {
			if !e2.Owned() {
				t.Fatal("BabelFish child private copy lacks O bit")
			}
		}
	}
}

func TestBabelFishCoWEventMaskPage(t *testing.T) {
	k := newKernel(t, ModeBabelFish)
	g := k.NewGroup("app", 1)
	p1 := mustProc(t, k, g, "c1")
	f := k.MustCreateFile("bin", 32)
	r := g.MustRegion("data", SegData, 32)
	p1.MustMapFile(r, f, 0, rw, true, "datasegment")
	p2, _, err := k.Fork(p1, "c2")
	if err != nil {
		t.Fatal(err)
	}

	gva := r.Start + 2*memdefs.PageSize
	// Both read: shared clean entry.
	mustFault(t, k, p1, gva, false)
	mustFault(t, k, p2, gva, false)
	shared, ok := g.SharedTableFor(gva)
	if !ok {
		t.Fatal("no shared table registered")
	}
	if p1.Tables.TableAt(gva, memdefs.LvlPTE) != shared || p2.Tables.TableAt(gva, memdefs.LvlPTE) != shared {
		t.Fatal("processes not using the shared table")
	}

	// p2 writes: the paper's CoW event.
	mustFault(t, k, p2, gva, true)

	// p2 now has a private PTE table with O-tagged entries.
	t2 := p2.Tables.TableAt(gva, memdefs.LvlPTE)
	if t2 == shared {
		t.Fatal("writer still on shared table")
	}
	e2 := leaf(t, p2, gva)
	if !e2.Owned() || !e2.Writable() {
		t.Fatalf("writer entry: %#x", uint64(e2))
	}
	// p1 keeps the clean shared entry.
	if p1.Tables.TableAt(gva, memdefs.LvlPTE) != shared {
		t.Fatal("reader lost the shared table")
	}
	e1 := leaf(t, p1, gva)
	if e1.Owned() || e1.PPN() == e2.PPN() {
		t.Fatalf("reader entry corrupted: %#x", uint64(e1))
	}

	// MaskPage bookkeeping: p2 holds bit 0, region mask bit set.
	mp, _ := g.maskPageFor(memdefs.PageVPN(gva), false)
	if mp == nil {
		t.Fatal("no MaskPage")
	}
	bit, ok := mp.bitOf(p2.PID)
	if !ok || bit != 0 {
		t.Fatalf("writer bit = %d/%v", bit, ok)
	}
	if mp.maskForVPN(memdefs.PageVPN(gva))&1 == 0 {
		t.Fatal("region mask bit not set")
	}
	if _, ok := mp.bitOf(p1.PID); ok {
		t.Fatal("reader got a PC bit")
	}

	// p1's pmd_t carries ORPC now.
	pmdTbl := p1.Tables.TableAt(gva, memdefs.LvlPMD)
	pmdE := pgtable.Entry(k.Mem.ReadEntry(pmdTbl, memdefs.LvlPMD.Index(gva)))
	if !pmdE.ORPC() {
		t.Fatal("reader pmd_t lacks ORPC")
	}

	// The unwritten sibling page in the same region: p2's private table
	// has an O-tagged copy pointing at the same frame as the shared one.
	sib := r.Start + 3*memdefs.PageSize
	mustFault(t, k, p1, sib, false)
	mustFault(t, k, p2, sib, false)
	es1, es2 := leaf(t, p1, sib), leaf(t, p2, sib)
	if es1.PPN() != es2.PPN() {
		t.Fatal("unwritten sibling diverged")
	}
	if !es2.Owned() {
		t.Fatal("writer's sibling entry lacks O bit")
	}
}

func TestMaskPageOverflowReverts(t *testing.T) {
	k := newKernel(t, ModeBabelFish)
	g := k.NewGroup("app", 1)
	tmpl := mustProc(t, k, g, "tmpl")
	f := k.MustCreateFile("bin", 8)
	r := g.MustRegion("data", SegData, 8)
	tmpl.MustMapFile(r, f, 0, rw, true, "data")
	mustFault(t, k, tmpl, r.Start, false)

	procs := []*Process{tmpl}
	for i := 0; i < 33; i++ {
		c, _, err := k.Fork(tmpl, "w")
		if err != nil {
			t.Fatal(err)
		}
		procs = append(procs, c)
	}
	// 33 distinct processes write: the 33rd overflows the 32-bit mask.
	for i := 1; i <= 33; i++ {
		mustFault(t, k, procs[i], r.Start, true)
	}
	if k.Stats().MaskOverflows != 1 {
		t.Fatalf("overflows = %d, want 1", k.Stats().MaskOverflows)
	}
	if !g.nonShared[regionKey1G(r.Start)] {
		t.Fatal("region not marked non-shared")
	}
	if _, ok := g.SharedTableFor(r.Start); ok {
		t.Fatal("shared table still registered after revert")
	}
	// Everyone still has working translations.
	for i := 0; i <= 33; i++ {
		if !leaf(t, procs[i], r.Start).Present() {
			t.Fatalf("process %d lost its mapping", i)
		}
	}
	// New faults in the region use private tables.
	before := g.SharedPTETables()
	mustFault(t, k, procs[0], r.Start+memdefs.PageSize, false)
	if g.SharedPTETables() != before {
		t.Fatal("revert region regrew a shared table")
	}
}

func TestMapSharedWriteNoCow(t *testing.T) {
	for _, mode := range []Mode{ModeBaseline, ModeBabelFish} {
		k := newKernel(t, mode)
		g := k.NewGroup("app", 1)
		p1 := mustProc(t, k, g, "c1")
		f := k.MustCreateFile("shm", 16)
		r := g.MustRegion("shm", SegMmap, 16)
		p1.MustMapFile(r, f, 0, rw, false, "shm")
		p2, _, err := k.Fork(p1, "c2")
		if err != nil {
			t.Fatal(err)
		}
		gva := r.Start
		mustFault(t, k, p1, gva, true)
		mustFault(t, k, p2, gva, true)
		e1, e2 := leaf(t, p1, gva), leaf(t, p2, gva)
		if !e1.Writable() || !e2.Writable() {
			t.Fatalf("[%v] MAP_SHARED write not writable", mode)
		}
		if e1.PPN() != e2.PPN() {
			t.Fatalf("[%v] MAP_SHARED write diverged frames", mode)
		}
		if k.Stats().CoWFaults != 0 {
			t.Fatalf("[%v] MAP_SHARED writes took CoW faults", mode)
		}
	}
}

func TestASLRLayouts(t *testing.T) {
	// ASLR-HW: per-process layouts, transform recovers the group VA.
	k := newKernel(t, ModeBabelFish)
	g := k.NewGroup("app", 7)
	p1 := mustProc(t, k, g, "c1")
	p2 := mustProc(t, k, g, "c2")
	gva := segBases[SegLibs] + g.groupOff[SegLibs] + 0x1234000
	v1, v2 := p1.ProcVA(gva), p2.ProcVA(gva)
	if p1.GroupVA(v1) != gva || p2.GroupVA(v2) != gva {
		t.Fatal("ASLR transform not invertible")
	}
	if p1.SharedVAFunc() == nil && v1 != gva {
		t.Fatal("nil transform but layout differs")
	}

	// ASLR-SW: all members share the group layout; transform is nil.
	cfg := DefaultConfig(ModeBabelFish)
	cfg.ASLR = ASLRSW
	cfg.THP = false
	k2 := New(physmem.New(64<<20), cfg)
	g2 := k2.NewGroup("app", 7)
	q1, _ := k2.CreateProcess(g2, "c1")
	q2, _ := k2.CreateProcess(g2, "c2")
	if q1.SharedVAFunc() != nil || q2.SharedVAFunc() != nil {
		t.Fatal("ASLR-SW should need no transform")
	}
	if q1.ProcVA(gva) != q2.ProcVA(gva) {
		t.Fatal("ASLR-SW layouts differ within group")
	}

	// Different groups get different layouts.
	g3 := k2.NewGroup("other", 8)
	if g3.groupOff == g2.groupOff {
		t.Fatal("two groups drew identical ASLR offsets")
	}
}

func TestRefcountsAfterExit(t *testing.T) {
	for _, mode := range []Mode{ModeBaseline, ModeBabelFish} {
		k := newKernel(t, mode)
		g := k.NewGroup("app", 1)
		p1 := mustProc(t, k, g, "c1")
		f := k.MustCreateFile("lib", 32)
		r := g.MustRegion("lib", SegLibs, 32)
		p1.MustMapFile(r, f, 0, rx, true, "lib")
		rh := g.MustRegion("heap", SegHeap, 32)
		p1.MustMapAnon(rh, rw, "heap")
		p2, _, err := k.Fork(p1, "c2")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			mustFault(t, k, p1, r.Start+memdefs.VAddr(i)*memdefs.PageSize, false)
			mustFault(t, k, p1, rh.Start+memdefs.VAddr(i)*memdefs.PageSize, true)
			mustFault(t, k, p2, rh.Start+memdefs.VAddr(i)*memdefs.PageSize, true)
		}
		p2.Exit()
		p1.Exit()
		// After both exit, only the page cache (and the zero page) hold
		// data frames; file pages must still be resident.
		if f.ResidentPages() != 8 {
			t.Fatalf("[%v] page cache lost pages: %d resident", mode, f.ResidentPages())
		}
		for i := 0; i < 8; i++ {
			frame := f.frames[i]
			if frame == 0 {
				continue
			}
			if got := k.Mem.Refs(frame); got != 1 {
				t.Fatalf("[%v] file frame %d refs = %d, want 1", mode, i, got)
			}
		}
	}
}

func TestHugeAnonTHP(t *testing.T) {
	cfg := DefaultConfig(ModeBabelFish)
	cfg.THPMinPages = 512
	k := New(physmem.New(512<<20), cfg)
	g := k.NewGroup("app", 1)
	p := mustProc(t, k, g, "c1")
	r := g.MustRegion("bigbuf", SegHeap, 1024) // 4MB: 2 huge pages
	vma := p.MustMapAnon(r, rw, "bigbuf")
	if !vma.Huge {
		t.Fatal("large anon region not THP")
	}
	mustFault(t, k, p, r.Start+0x3000, true)
	e := p.Tables.GetEntry(r.Start, memdefs.LvlPMD)
	if !e.Present() || !e.Huge() || !e.Writable() {
		t.Fatalf("huge entry: %#x", uint64(e))
	}
	if !e.Owned() {
		t.Fatal("BabelFish huge anon entry lacks O bit")
	}
}

func TestHugeFileSharedPMDTable(t *testing.T) {
	cfg := DefaultConfig(ModeBabelFish)
	k := New(physmem.New(512<<20), cfg)
	g := k.NewGroup("app", 1)
	p1 := mustProc(t, k, g, "c1")
	f := k.MustCreateHugeFile("graph2m", 1024)
	r := g.MustRegion("graph2m", SegMmap, 1024)
	v := p1.MustMapFile(r, f, 0, ro, false, "graph2m")
	v.Huge = true
	p2, _, err := k.Fork(p1, "c2")
	if err != nil {
		t.Fatal(err)
	}
	mustFault(t, k, p1, r.Start+0x5000, false)
	mustFault(t, k, p2, r.Start+0x5000, false)
	e1 := p1.Tables.GetEntry(r.Start, memdefs.LvlPMD)
	e2 := p2.Tables.GetEntry(r.Start, memdefs.LvlPMD)
	if !e1.Present() || !e1.Huge() || e1.PPN() != e2.PPN() {
		t.Fatalf("huge file entries: %#x vs %#x", uint64(e1), uint64(e2))
	}
	t1 := p1.Tables.TableAt(r.Start, memdefs.LvlPMD)
	t2 := p2.Tables.TableAt(r.Start, memdefs.LvlPMD)
	if t1 != t2 {
		t.Fatal("PMD table not merged for huge file mapping")
	}
}

func TestCharacterization(t *testing.T) {
	k := newKernel(t, ModeBaseline)
	g := k.NewGroup("app", 1)
	p1 := mustProc(t, k, g, "c1")
	f := k.MustCreateFile("lib", 64)
	r := g.MustRegion("lib", SegLibs, 64)
	p1.MustMapFile(r, f, 0, rx, true, "lib")
	rh := g.MustRegion("buf", SegHeap, 64)
	p1.MustMapAnon(rh, rw, "buf")
	p2, _, err := k.Fork(p1, "c2")
	if err != nil {
		t.Fatal(err)
	}
	// 10 shared lib pages each; 5 private buffer pages each.
	for i := 0; i < 10; i++ {
		mustFault(t, k, p1, r.Start+memdefs.VAddr(i)*memdefs.PageSize, false)
		mustFault(t, k, p2, r.Start+memdefs.VAddr(i)*memdefs.PageSize, false)
	}
	for i := 0; i < 5; i++ {
		mustFault(t, k, p1, rh.Start+memdefs.VAddr(i)*memdefs.PageSize, true)
		mustFault(t, k, p2, rh.Start+memdefs.VAddr(i)*memdefs.PageSize, true)
	}
	c := k.CharacterizeGroup(g)
	if c.Total != 30 {
		t.Fatalf("total = %d, want 30", c.Total)
	}
	if c.TotalShareable != 20 {
		t.Fatalf("shareable = %d, want 20", c.TotalShareable)
	}
	if c.TotalUnshare != 10 {
		t.Fatalf("unshareable = %d, want 10", c.TotalUnshare)
	}
	// Fused: 10 shared + 10 private = 20.
	if c.FusedTotal != 20 {
		t.Fatalf("fused = %d, want 20", c.FusedTotal)
	}
	if pct := c.ShareablePct(); pct < 66 || pct > 67 {
		t.Fatalf("shareable pct = %.1f", pct)
	}
	// Accessed-bit epoch: faults set Access, so everything is active.
	if c.Active != 30 {
		t.Fatalf("active = %d, want 30", c.Active)
	}
	k.ClearAccessed(g)
	c2 := k.CharacterizeGroup(g)
	if c2.Active != 0 {
		t.Fatalf("active after clear = %d", c2.Active)
	}
}

func TestSpuriousFaultIsBenign(t *testing.T) {
	k := newKernel(t, ModeBabelFish)
	g := k.NewGroup("app", 1)
	p := mustProc(t, k, g, "c1")
	f := k.MustCreateFile("lib", 8)
	r := g.MustRegion("lib", SegLibs, 8)
	p.MustMapFile(r, f, 0, ro, true, "lib")
	mustFault(t, k, p, r.Start, false)
	before := k.Stats().MinorFaults
	mustFault(t, k, p, r.Start, false) // already present
	if k.Stats().MinorFaults != before {
		t.Fatal("spurious fault counted as minor")
	}
}

func TestFaultErrors(t *testing.T) {
	k := newKernel(t, ModeBaseline)
	g := k.NewGroup("app", 1)
	p := mustProc(t, k, g, "c1")
	if _, err := k.HandleFault(p.PID, 0xdead000, false, memdefs.AccessData); err == nil {
		t.Fatal("unmapped fault succeeded")
	}
	f := k.MustCreateFile("lib", 8)
	r := g.MustRegion("lib", SegLibs, 8)
	p.MustMapFile(r, f, 0, ro, true, "lib")
	if _, err := k.HandleFault(p.PID, p.ProcVA(r.Start), true, memdefs.AccessData); err == nil {
		t.Fatal("write to read-only VMA succeeded")
	}
	if _, err := k.HandleFault(p.PID, p.ProcVA(r.Start), false, memdefs.AccessInstr); err == nil {
		t.Fatal("exec of no-exec VMA succeeded")
	}
	if _, err := k.HandleFault(9999, 0x1000, false, memdefs.AccessData); err == nil {
		t.Fatal("fault for unknown pid succeeded")
	}
}

func TestNoPCBitmaskVariant(t *testing.T) {
	cfg := DefaultConfig(ModeBabelFish)
	cfg.THP = false
	cfg.NoPCBitmask = true
	k := New(physmem.New(256<<20), cfg)
	g := k.NewGroup("app", 1)
	p1 := mustProc(t, k, g, "c1")
	f := k.MustCreateFile("bin", 32)
	r := g.MustRegion("data", SegData, 32)
	p1.MustMapFile(r, f, 0, rw, true, "data")
	p2, _, err := k.Fork(p1, "c2")
	if err != nil {
		t.Fatal(err)
	}
	gva := r.Start + 2*memdefs.PageSize
	mustFault(t, k, p1, gva, false)
	mustFault(t, k, p2, gva, false)
	if _, ok := g.SharedTableFor(gva); !ok {
		t.Fatal("no shared table before the write")
	}
	// First CoW write ends sharing for the whole PMD table set.
	mustFault(t, k, p2, gva, true)
	if _, ok := g.SharedTableFor(gva); ok {
		t.Fatal("shared table survived a CoW write under NoPCBitmask")
	}
	if !g.nonShared[regionKey1G(gva)] {
		t.Fatal("region not marked non-shared")
	}
	// No MaskPage is ever allocated.
	if len(g.maskPages) != 0 {
		t.Fatalf("MaskPages allocated: %d", len(g.maskPages))
	}
	// Correctness preserved: writer has its own frame, reader keeps the
	// clean page.
	e1, e2 := leaf(t, p1, gva), leaf(t, p2, gva)
	if !e1.Present() || !e2.Present() || e1.PPN() == e2.PPN() {
		t.Fatalf("entries after revert: %#x vs %#x", uint64(e1), uint64(e2))
	}
	if !e2.Writable() || e1.Writable() {
		t.Fatal("permissions wrong after revert")
	}
}

// TestPMDLevelSharing exercises Config.ShareLevel == LvlPMD: whole PMD
// tables (1GB of mappings) are shared, PTE tables under them are
// implicitly shared, and a CoW writer privatizes both levels.
func TestPMDLevelSharing(t *testing.T) {
	cfg := DefaultConfig(ModeBabelFish)
	cfg.THP = false
	cfg.ShareLevel = memdefs.LvlPMD
	k := New(physmem.New(256<<20), cfg)
	g := k.NewGroup("app", 8)
	p1 := mustProc(t, k, g, "c1")
	f := k.MustCreateFile("bin", 64)
	r := g.MustRegion("data", SegData, 64)
	p1.MustMapFile(r, f, 0, rw, true, "data")
	p2, _, err := k.Fork(p1, "c2")
	if err != nil {
		t.Fatal(err)
	}

	gva := r.Start + 2*memdefs.PageSize
	mustFault(t, k, p1, gva, false)
	// p2 takes one cheap link fault for the whole 1GB region, after which
	// every translation p1 (or anyone) established is visible.
	minors := k.Stats().MinorFaults
	links := k.Stats().LinkFaults
	mustFault(t, k, p2, gva, false)
	if k.Stats().MinorFaults != minors || k.Stats().LinkFaults != links+1 {
		t.Fatalf("expected one link fault, got minors %d→%d links %d→%d",
			minors, k.Stats().MinorFaults, links, k.Stats().LinkFaults)
	}
	// The PMD table itself is shared.
	if p1.Tables.TableAt(gva, memdefs.LvlPMD) != p2.Tables.TableAt(gva, memdefs.LvlPMD) {
		t.Fatal("PMD tables not shared")
	}
	if !leaf(t, p2, gva).Present() {
		t.Fatal("translation not shared through the PMD table")
	}

	// CoW write by p2: privatizes PMD + PTE for p2 only.
	mustFault(t, k, p2, gva, true)
	e1, e2 := leaf(t, p1, gva), leaf(t, p2, gva)
	if e1.PPN() == e2.PPN() {
		t.Fatal("CoW did not copy under PMD sharing")
	}
	if !e2.Owned() || !e2.Writable() {
		t.Fatalf("writer entry: %#x", uint64(e2))
	}
	if p1.Tables.TableAt(gva, memdefs.LvlPMD) == p2.Tables.TableAt(gva, memdefs.LvlPMD) {
		t.Fatal("writer still on the shared PMD table")
	}
	// p1's view intact; sibling page in the same region still shared.
	sib := r.Start + 3*memdefs.PageSize
	mustFault(t, k, p1, sib, false)
	mustFault(t, k, p2, sib, false)
	if leaf(t, p1, sib).PPN() != leaf(t, p2, sib).PPN() {
		t.Fatal("unwritten sibling diverged")
	}
	// ORPC visible in the shared pmd entry.
	sharedPMD := g.sharedPMD[regionKey1G(gva)]
	pe := pgtable.Entry(k.Mem.ReadEntry(sharedPMD, memdefs.LvlPMD.Index(gva)))
	if !pe.ORPC() {
		t.Fatal("ORPC not set in the shared pmd_t")
	}

	// Teardown leaks nothing beyond the zero page.
	p1.Exit()
	p2.Exit()
	f.Drop()
	if got := k.Mem.Allocated(); got != 1 {
		t.Fatalf("%d frames live after teardown, want 1 (zero page)", got)
	}
}

// TestPMDSharingUnmapIsolated: under PMD-level sharing, unmapping a VMA in
// one process must not disturb the sibling's mappings.
func TestPMDSharingUnmapIsolated(t *testing.T) {
	cfg := DefaultConfig(ModeBabelFish)
	cfg.THP = false
	cfg.ShareLevel = memdefs.LvlPMD
	k := New(physmem.New(256<<20), cfg)
	g := k.NewGroup("app", 9)
	p1 := mustProc(t, k, g, "c1")
	f := k.MustCreateFile("sst", 32)
	r := g.MustRegion("sst", SegMmap, 32)
	p1.MustMapFile(r, f, 0, ro, true, "sst")
	p2, _, err := k.Fork(p1, "c2")
	if err != nil {
		t.Fatal(err)
	}
	gva := r.Start
	mustFault(t, k, p1, gva, false)
	mustFault(t, k, p2, gva, false)
	if _, err := p1.UnmapRegionName("sst"); err != nil {
		t.Fatal(err)
	}
	if !leaf(t, p2, gva).Present() {
		t.Fatal("sibling lost mapping after unmap")
	}
	if _, err := k.HandleFault(p1.PID, p1.ProcVA(gva), false, memdefs.AccessData); err == nil {
		t.Fatal("unmapped region still faultable in p1")
	}
}

// TestMaskOverflowUnderPMDSharing drives >32 writers with ShareLevel ==
// LvlPMD: the revert path must leave every process with working private
// translations.
func TestMaskOverflowUnderPMDSharing(t *testing.T) {
	cfg := DefaultConfig(ModeBabelFish)
	cfg.THP = false
	cfg.ShareLevel = memdefs.LvlPMD
	k := New(physmem.New(512<<20), cfg)
	g := k.NewGroup("app", 10)
	tmpl := mustProc(t, k, g, "tmpl")
	f := k.MustCreateFile("bin", 8)
	r := g.MustRegion("data", SegData, 8)
	tmpl.MustMapFile(r, f, 0, rw, true, "data")
	mustFault(t, k, tmpl, r.Start, false)

	procs := []*Process{tmpl}
	for i := 0; i < 33; i++ {
		c, _, err := k.Fork(tmpl, "w")
		if err != nil {
			t.Fatal(err)
		}
		procs = append(procs, c)
	}
	for i := 1; i <= 33; i++ {
		mustFault(t, k, procs[i], r.Start, true)
	}
	if k.Stats().MaskOverflows != 1 {
		t.Fatalf("overflows = %d", k.Stats().MaskOverflows)
	}
	if _, has := g.sharedPMD[regionKey1G(r.Start)]; has {
		t.Fatal("shared PMD table survived the revert")
	}
	for i, p := range procs {
		if !leaf(t, p, r.Start).Present() {
			t.Fatalf("process %d lost its mapping", i)
		}
	}
	// Writers have distinct frames; readers share the clean page.
	seen := map[memdefs.PPN]int{}
	for i := 1; i <= 33; i++ {
		seen[leaf(t, procs[i], r.Start).PPN()]++
	}
	if len(seen) != 33 {
		t.Fatalf("writers share frames: %d distinct of 33", len(seen))
	}
}

// TestUnmapRevokesSharedTLBEligibility: after munmap, the process holds a
// PC bit for the affected regions, so shared TLB entries stop matching it
// (the correctness subtlety the translation oracle exposed).
func TestUnmapRevokesSharedTLBEligibility(t *testing.T) {
	k := newKernel(t, ModeBabelFish)
	g := k.NewGroup("app", 12)
	p1 := mustProc(t, k, g, "c1")
	f := k.MustCreateFile("lib", 16)
	r := g.MustRegion("lib", SegLibs, 16)
	p1.MustMapFile(r, f, 0, rx, true, "lib")
	p2, _, err := k.Fork(p1, "c2")
	if err != nil {
		t.Fatal(err)
	}
	mustFault(t, k, p1, r.Start, false)
	mustFault(t, k, p2, r.Start, false)
	if _, err := p2.UnmapRegionName("lib"); err != nil {
		t.Fatal(err)
	}
	mp, _ := g.maskPageFor(memdefs.PageVPN(r.Start), false)
	if mp == nil {
		t.Fatal("no MaskPage after unmap")
	}
	if _, ok := mp.bitOf(p2.PID); !ok {
		t.Fatal("unmapper holds no PC bit")
	}
	if mp.maskForVPN(memdefs.PageVPN(r.Start)) == 0 {
		t.Fatal("region mask empty after unmap")
	}
	// p1 keeps sharing unaffected.
	if _, ok := mp.bitOf(p1.PID); ok {
		t.Fatal("mapper wrongly got a PC bit")
	}
}

// TestNoPCBitmaskOracleParity: the NoPCBitmask variant must preserve CoW
// isolation exactly like the full design.
func TestNoPCBitmaskOracleParity(t *testing.T) {
	cfg := DefaultConfig(ModeBabelFish)
	cfg.THP = false
	cfg.NoPCBitmask = true
	k := New(physmem.New(256<<20), cfg)
	g := k.NewGroup("app", 13)
	p1 := mustProc(t, k, g, "c1")
	f := k.MustCreateFile("bin", 16)
	r := g.MustRegion("data", SegData, 16)
	p1.MustMapFile(r, f, 0, rw, true, "data")
	p2, _, err := k.Fork(p1, "c2")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		gva := r.Start + memdefs.VAddr(i)*memdefs.PageSize
		mustFault(t, k, p1, gva, false)
		mustFault(t, k, p2, gva, false)
	}
	mustFault(t, k, p2, r.Start, true)
	e1, e2 := leaf(t, p1, r.Start), leaf(t, p2, r.Start)
	if e1.PPN() == e2.PPN() || !e2.Writable() || e1.Writable() {
		t.Fatalf("CoW isolation broken: %#x vs %#x", uint64(e1), uint64(e2))
	}
	// Unwritten pages still share frames even though tables reverted.
	sib := r.Start + memdefs.PageSize
	if leaf(t, p1, sib).PPN() != leaf(t, p2, sib).PPN() {
		t.Fatal("clean pages diverged after revert")
	}
}

// TestNoPCBitmaskEveryExitReverts: under NoPCBitmask, munmap and mprotect
// leave sharing the way a CoW write does — the region reverts to private
// tables — at both sharing levels, and no MaskPage is ever allocated.
func TestNoPCBitmaskEveryExitReverts(t *testing.T) {
	for _, level := range []memdefs.Level{memdefs.LvlPTE, memdefs.LvlPMD} {
		for _, exit := range []string{"unmap", "protect"} {
			cfg := DefaultConfig(ModeBabelFish)
			cfg.THP = false
			cfg.NoPCBitmask = true
			cfg.ShareLevel = level
			k := New(physmem.New(256<<20), cfg)
			g := k.NewGroup("app", 14)
			p1 := mustProc(t, k, g, "c1")
			f := k.MustCreateFile("lib", 16)
			r := g.MustRegion("lib", SegLibs, 16)
			p1.MustMapFile(r, f, 0, rx, true, "lib")
			// p2 forks before the region has a shared table, so it does
			// not link it: its mprotect only has to claim a PC bit.
			p2, _, err := k.Fork(p1, "c2")
			if err != nil {
				t.Fatal(err)
			}
			mustFault(t, k, p1, r.Start, false)
			if exit == "unmap" {
				mustFault(t, k, p2, r.Start, false)
				_, err = p2.UnmapRegionName("lib")
			} else {
				v, _ := p2.FindVMA(r.Start)
				_, err = p2.Protect(v, ro)
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(g.maskPages) != 0 {
				t.Errorf("[%v %s] %d MaskPages allocated", level, exit, len(g.maskPages))
			}
			if !g.nonShared[regionKey1G(r.Start)] {
				t.Errorf("[%v %s] region not reverted", level, exit)
			}
			if _, ok := k.sharedTableFor(g, r.Start); ok {
				t.Errorf("[%v %s] shared table still registered", level, exit)
			}
			if e := leaf(t, p1, r.Start); !e.Present() || e.PPN() != f.frames[0] || !e.Owned() {
				t.Errorf("[%v %s] sibling entry %#x, want an owned map of page-cache frame %d", level, exit, uint64(e), f.frames[0])
			}
			if rep := k.Audit(); !rep.OK() {
				t.Errorf("[%v %s] %s", level, exit, rep)
			}
		}
	}
}
