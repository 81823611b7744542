package kernel

import (
	"strings"
	"testing"

	"babelfish/internal/memdefs"
	"babelfish/internal/physmem"
)

// buildAuditWorkload stands up a small BabelFish group with file-backed and
// anonymous mappings, two forked containers, and some CoW divergence — a
// state where every accounting rule of the auditor is in play.
func buildAuditWorkload(t *testing.T) (*Kernel, []*Process) {
	t.Helper()
	k := newKernel(t, ModeBabelFish)
	g := k.NewGroup("app", 50)
	tmpl := mustProc(t, k, g, "tmpl")
	f := k.MustCreateFile("data", 64)
	r := g.MustRegion("data", SegMmap, 64)
	rh := g.MustRegion("heap", SegHeap, 32)
	tmpl.MustMapFile(r, f, 0, rw, true, "data")
	tmpl.MustMapAnon(rh, rw, "heap")
	for i := 0; i < 64; i++ {
		mustFault(t, k, tmpl, r.PageVA(i), false)
	}
	procs := []*Process{tmpl}
	for _, name := range []string{"c1", "c2"} {
		c, _, err := k.Fork(tmpl, name)
		if err != nil {
			t.Fatalf("fork %s: %v", name, err)
		}
		procs = append(procs, c)
	}
	// Diverge: each child writes a different private page (CoW break into
	// owned tables), and touches the shared heap.
	mustFault(t, k, procs[1], r.PageVA(3), true)
	mustFault(t, k, procs[2], r.PageVA(7), true)
	mustFault(t, k, procs[1], rh.PageVA(0), true)
	return k, procs
}

func TestAuditCleanAfterWorkload(t *testing.T) {
	k, procs := buildAuditWorkload(t)
	if rep := k.Audit(); !rep.OK() {
		t.Fatalf("audit after workload:\n%s", rep)
	}
	if rep := k.Mem.Audit(); !rep.OK() {
		t.Fatalf("physmem audit after workload:\n%s", rep)
	}
	// Exiting a child must not strand any of its references.
	procs[1].Exit()
	if rep := k.Audit(); !rep.OK() {
		t.Fatalf("audit after exit:\n%s", rep)
	}
	// Reclaim under no pressure is a no-op for mapped dirty pages but may
	// evict clean ones; either way the books must still balance.
	k.Reclaim(16)
	if rep := k.Audit(); !rep.OK() {
		t.Fatalf("audit after reclaim:\n%s", rep)
	}
	if rep := k.Mem.Audit(); !rep.OK() {
		t.Fatalf("physmem audit after reclaim:\n%s", rep)
	}
}

func TestAuditDetectsExtraRef(t *testing.T) {
	k, _ := buildAuditWorkload(t)
	f, _ := k.LookupFile("data")
	ppn := f.frames[0]
	if ppn == 0 {
		t.Fatal("page 0 not resident")
	}
	k.Mem.Ref(ppn) // a reference the kernel cannot account for
	defer k.Mem.Unref(ppn)
	rep := k.Audit()
	if rep.OK() {
		t.Fatal("audit missed a stray reference")
	}
	found := false
	for _, v := range rep.Violations {
		if strings.Contains(v, "refcount") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no refcount violation reported:\n%s", rep)
	}
}

// TestAuditDetectsMaskPageUnderNoPCBitmask: a NoPCBitmask kernel reverts
// instead of claiming PC bits, so any MaskPage is a violation.
func TestAuditDetectsMaskPageUnderNoPCBitmask(t *testing.T) {
	cfg := DefaultConfig(ModeBabelFish)
	cfg.NoPCBitmask = true
	k := New(physmem.New(64<<20), cfg)
	g := k.NewGroup("app", 1)
	r := g.MustRegion("buf", SegHeap, 4)
	if rep := k.Audit(); !rep.OK() {
		t.Fatalf("clean kernel failed the audit:\n%s", rep)
	}
	if _, err := g.maskPageFor(memdefs.PageVPN(r.Start), true); err != nil {
		t.Fatal(err)
	}
	rep := k.Audit()
	if rep.OK() || !strings.Contains(rep.Violations[0], "MaskPages under NoPCBitmask") {
		t.Fatalf("audit missed a MaskPage under NoPCBitmask:\n%s", rep)
	}
}

func TestAuditDetectsLeakedFrame(t *testing.T) {
	k, _ := buildAuditWorkload(t)
	// Allocate behind the kernel's back: reachable from no accounting root.
	ppn, err := k.Mem.Alloc(physmem.FrameData)
	if err != nil {
		t.Fatal(err)
	}
	defer k.Mem.Unref(ppn)
	rep := k.Audit()
	if rep.OK() {
		t.Fatal("audit missed a leaked frame")
	}
	found := false
	for _, v := range rep.Violations {
		if strings.Contains(v, "leaked frame") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no leak violation reported:\n%s", rep)
	}
}

func TestAuditDetectsBrokenSharedLink(t *testing.T) {
	k, procs := buildAuditWorkload(t)
	g := procs[0].Group
	// Take an extra reference on a group-shared PTE table: the link-count
	// rule (1 registry + 1 per linking member) must trip.
	for _, key := range sortedKeys(g.sharedPTE) {
		k.Mem.Ref(g.sharedPTE[key])
		defer k.Mem.Unref(g.sharedPTE[key])
		break
	}
	rep := k.Audit()
	if rep.OK() {
		t.Fatal("audit missed a corrupted shared-table link count")
	}
}

func TestAuditReportString(t *testing.T) {
	k, _ := buildAuditWorkload(t)
	rep := k.Audit()
	s := rep.String()
	if !strings.Contains(s, "tables walked") || rep.TablesWalked == 0 || rep.FramesChecked == 0 {
		t.Fatalf("implausible report: %s", s)
	}
}

func TestReclaimEvictsLRUFirst(t *testing.T) {
	k := newKernel(t, ModeBaseline)
	f := k.MustCreateFile("cache", 8)
	if err := f.Prefault(); err != nil {
		t.Fatal(err)
	}
	// Re-touch everything except page 2, making it the unique LRU page.
	for i := 0; i < 8; i++ {
		if i == 2 {
			continue
		}
		if _, _, err := f.Frame(i); err != nil {
			t.Fatal(err)
		}
	}
	if got := k.Reclaim(1); got != 1 {
		t.Fatalf("reclaimed %d pages, want 1", got)
	}
	if f.Resident(2) {
		t.Fatal("LRU page 2 survived while newer pages were evicted")
	}
	for i := 0; i < 8; i++ {
		if i != 2 && !f.Resident(i) {
			t.Fatalf("recently used page %d evicted", i)
		}
	}
	if k.Stats().Reclaimed != 1 {
		t.Fatalf("Reclaimed stat = %d, want 1", k.Stats().Reclaimed)
	}
}

func TestReclaimSkipsDirtyAndShootsDownMapped(t *testing.T) {
	k := newKernel(t, ModeBaseline)
	g := k.NewGroup("app", 51)
	p := mustProc(t, k, g, "c1")
	f := k.MustCreateFile("data", 4)
	r := g.MustRegion("data", SegMmap, 4)
	// MAP_SHARED so writes dirty the file page instead of COWing.
	p.MustMapFile(r, f, 0, rw, false, "data")
	mustFault(t, k, p, r.PageVA(0), true)  // dirty
	mustFault(t, k, p, r.PageVA(1), false) // clean, mapped
	base := k.Stats().Shootdowns
	freed := k.Reclaim(8)
	if freed == 0 {
		t.Fatal("nothing reclaimed")
	}
	if !f.Resident(0) {
		t.Fatal("dirty page discarded (no writeback path exists)")
	}
	if f.Resident(1) {
		t.Fatal("clean mapped page survived reclaim")
	}
	if k.Stats().Shootdowns == base {
		t.Fatal("no shootdown for a reclaimed mapped page")
	}
	// The unmapped PTE must fault back in as a major fault.
	before := k.Stats().MajorFaults
	mustFault(t, k, p, r.PageVA(1), false)
	if k.Stats().MajorFaults == before {
		t.Fatal("re-access of a reclaimed page was not a major fault")
	}
	if rep := k.Audit(); !rep.OK() {
		t.Fatalf("audit after reclaim:\n%s", rep)
	}
}
