package kernel

import (
	"testing"

	"babelfish/internal/memdefs"
	"babelfish/internal/pgtable"
	"babelfish/internal/physmem"
)

func TestMapFileBeyondFileErrors(t *testing.T) {
	k := newKernel(t, ModeBaseline)
	g := k.NewGroup("app", 40)
	p := mustProc(t, k, g, "c1")
	f := k.MustCreateFile("small", 4)
	r := g.MustRegion("big", SegMmap, 16)
	if _, err := p.MapFile(r, f, 0, ro, true, "big"); err == nil {
		t.Fatal("mapping beyond file accepted")
	}
	if len(p.VMAs()) != 0 {
		t.Fatal("failed MapFile left a VMA behind")
	}
}

func TestOverlappingVMAErrors(t *testing.T) {
	k := newKernel(t, ModeBaseline)
	g := k.NewGroup("app", 41)
	p := mustProc(t, k, g, "c1")
	r := g.MustRegion("a", SegHeap, 8)
	p.MustMapAnon(r, rw, "a")
	sub := Region{Name: "overlap", Seg: SegHeap, Start: r.Start + memdefs.PageSize, Pages: 2}
	if _, err := p.MapAnon(sub, rw, "overlap"); err == nil {
		t.Fatal("overlapping VMA accepted")
	}
	if got := len(p.VMAs()); got != 1 {
		t.Fatalf("VMA count after rejected overlap = %d, want 1", got)
	}
}

func TestDuplicateFileErrors(t *testing.T) {
	k := newKernel(t, ModeBaseline)
	k.MustCreateFile("x", 4)
	if _, err := k.CreateFile("x", 8); err == nil {
		t.Fatal("duplicate file accepted")
	}
	if _, err := k.CreateFile("bad", 0); err == nil {
		t.Fatal("zero-page file accepted")
	}
}

func TestRegionMisuseErrors(t *testing.T) {
	k := newKernel(t, ModeBaseline)
	g := k.NewGroup("app", 46)
	g.MustRegion("a", SegHeap, 8)
	if _, err := g.Region("a", SegHeap, 16); err == nil {
		t.Fatal("redefinition with a different shape accepted")
	}
	if _, err := g.Region("a", SegHeap, 8); err != nil {
		t.Fatalf("idempotent redefinition rejected: %v", err)
	}
	if _, err := g.Region("b", SegHeap, 0); err == nil {
		t.Fatal("zero-page region accepted")
	}
	// Exhaust the segment: the failing call must not advance the cursor,
	// so a smaller region still fits afterwards.
	if _, err := g.Region("huge", SegStack, 1<<40); err == nil {
		t.Fatal("segment-exhausting region accepted")
	}
	if _, err := g.Region("small", SegStack, 8); err != nil {
		t.Fatalf("small region after rejected overflow: %v", err)
	}
}

func TestHugeFileAPIMisuse(t *testing.T) {
	k := newKernel(t, ModeBaseline)
	hf := k.MustCreateHugeFile("h", 1024)
	if _, _, err := hf.Frame(0); err == nil {
		t.Error("Frame on huge file succeeded")
	}
	rf := k.MustCreateFile("r", 8)
	if _, _, err := rf.HugeFrame(0); err == nil {
		t.Error("HugeFrame on regular file succeeded")
	}
	if _, _, err := hf.HugeFrame(99); err == nil {
		t.Error("out-of-range block accepted")
	}
	if _, err := k.CreateHugeFile("bad", 100); err == nil {
		t.Error("unaligned huge file accepted")
	}
}

func TestExitIdempotentAndDeadProcessFaults(t *testing.T) {
	k := newKernel(t, ModeBabelFish)
	g := k.NewGroup("app", 42)
	p := mustProc(t, k, g, "c1")
	r := g.MustRegion("x", SegHeap, 8)
	p.MustMapAnon(r, rw, "x")
	mustFault(t, k, p, r.Start, true)
	pid := p.PID
	p.Exit()
	p.Exit() // idempotent
	if !p.Dead() {
		t.Fatal("not dead")
	}
	if _, err := k.HandleFault(pid, 0x1000, false, memdefs.AccessData); err == nil {
		t.Fatal("fault on exited pid succeeded")
	}
	if _, err := p.Unmap(p.vmas[0]); err == nil {
		t.Fatal("unmap on dead process succeeded")
	}
}

func TestCharacterizationCountsHugeAsTHP(t *testing.T) {
	cfg := DefaultConfig(ModeBabelFish)
	cfg.THPMinPages = 512
	k := New(physmem.New(512<<20), cfg)
	g := k.NewGroup("app", 43)
	p := mustProc(t, k, g, "c1")
	r := g.MustRegion("buf", SegHeap, 1024)
	p.MustMapAnon(r, rw, "buf")
	mustFault(t, k, p, r.Start, true)
	c := k.CharacterizeGroup(g)
	if c.TotalTHP != 1 {
		t.Fatalf("THP entries = %d, want 1", c.TotalTHP)
	}
	if c.TotalShareable != 0 {
		t.Fatal("huge anon counted shareable")
	}
	// Fused accounting never collapses THP entries.
	if c.FusedTotal != c.Total {
		t.Fatalf("fused %d != total %d for pure-THP census", c.FusedTotal, c.Total)
	}
}

func TestZeroPageNeverFreed(t *testing.T) {
	k := newKernel(t, ModeBaseline)
	g := k.NewGroup("app", 44)
	p := mustProc(t, k, g, "c1")
	r := g.MustRegion("x", SegHeap, 8)
	p.MustMapAnon(r, rw, "x")
	for i := 0; i < 8; i++ {
		mustFault(t, k, p, r.PageVA(i), false) // all map the zero page
	}
	p.Exit()
	if k.Mem.Kind(k.zeroPPN) == physmem.FrameFree {
		t.Fatal("zero page freed")
	}
	if k.Mem.Refs(k.zeroPPN) != 1 {
		t.Fatalf("zero page refs = %d, want 1", k.Mem.Refs(k.zeroPPN))
	}
}

// TestSetPMDORPCIdempotent: setORPC marks a pmd_t only once the region's
// PC bitmask is non-zero, and marking it again changes nothing.
func TestSetPMDORPCIdempotent(t *testing.T) {
	k := newKernel(t, ModeBabelFish)
	g := k.NewGroup("app", 45)
	p := mustProc(t, k, g, "c1")
	f := k.MustCreateFile("x", 8)
	r := g.MustRegion("x", SegMmap, 8)
	p.MustMapFile(r, f, 0, ro, true, "x")
	mustFault(t, k, p, r.Start, false)
	tbl := p.Tables.TableAt(r.Start, memdefs.LvlPMD)
	idx := memdefs.LvlPMD.Index(r.Start)
	pmd := func() pgtable.Entry { return pgtable.Entry(k.Mem.ReadEntry(tbl, idx)) }
	k.setORPC(p, r.Start)
	if pmd().ORPC() {
		t.Fatal("ORPC set while the region's PC bitmask is empty")
	}
	mp, err := g.maskPageFor(memdefs.PageVPN(r.Start), true)
	if err != nil {
		t.Fatal(err)
	}
	mp.masks[idx] = 1
	k.setORPC(p, r.Start)
	e1 := pmd()
	k.setORPC(p, r.Start) // no-op
	if e2 := pmd(); e1 != e2 || !e2.ORPC() {
		t.Fatal("ORPC setting not idempotent")
	}
}

func TestCostsDefaultsApplied(t *testing.T) {
	k := New(physmem.New(16<<20), Config{Mode: ModeBabelFish})
	if k.Cfg.Costs == (Costs{}) {
		t.Fatal("zero costs not defaulted")
	}
	if k.Cfg.ShareLevel != memdefs.LvlPTE {
		t.Fatalf("share level defaulted to %v", k.Cfg.ShareLevel)
	}
}
