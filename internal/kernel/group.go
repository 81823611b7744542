package kernel

import (
	"fmt"

	"babelfish/internal/memdefs"
	"babelfish/internal/physmem"
)

// Group is a CCID group: all the containers created by a user for the
// same application (Section III-A). Members share a virtual-address layout
// (group VA), and — under BabelFish — TLB entries, page-table sub-trees,
// and the MaskPage CoW bookkeeping.
type Group struct {
	CCID memdefs.CCID
	Name string
	kern *Kernel
	seed uint64

	groupOff [NumSegs]memdefs.VAddr
	members  map[memdefs.PID]*Process

	regions   map[string]Region
	segCursor [NumSegs]memdefs.VAddr // next free group VA per segment

	// sharedPTE maps a 2MB region key (group VA >> 21) to the group's
	// shared PTE table frame; sharedPMD maps a 1GB key (gva >> 30) to a
	// shared PMD table (huge-page merging, Section IV-C).
	sharedPTE map[uint64]memdefs.PPN
	sharedPMD map[uint64]memdefs.PPN

	// maskPages holds the CoW bookkeeping, one per 1GB PMD-table set.
	maskPages map[uint64]*MaskPage
	// nonShared marks 1GB regions that reverted to private translations
	// after more than 32 CoW writers (Appendix).
	nonShared map[uint64]bool
}

// NewGroup creates a CCID group with its own ASLR seed.
func (k *Kernel) NewGroup(name string, seed uint64) *Group {
	g := &Group{
		CCID:      k.nextCCID,
		Name:      name,
		kern:      k,
		seed:      seed,
		members:   make(map[memdefs.PID]*Process),
		regions:   make(map[string]Region),
		sharedPTE: make(map[uint64]memdefs.PPN),
		sharedPMD: make(map[uint64]memdefs.PPN),
		maskPages: make(map[uint64]*MaskPage),
		nonShared: make(map[uint64]bool),
	}
	k.nextCCID++
	g.groupOff = aslrOffsets(seed)
	for s := SegText; s < NumSegs; s++ {
		g.segCursor[s] = segBases[s] + g.groupOff[s]
	}
	k.groups[g.CCID] = g
	return g
}

// MemberCount returns the number of live members.
func (g *Group) MemberCount() int { return len(g.members) }

func (g *Group) removeMember(pid memdefs.PID) {
	delete(g.members, pid)
	if len(g.members) == 0 {
		g.teardown()
	}
}

// teardown releases the group's registry references once the last member
// exits: shared tables (and, transitively, their data-page references)
// and MaskPage frames. The group object itself stays registered so a new
// container generation can reuse the same layout.
func (g *Group) teardown() {
	// Release in sorted key order, not map order: freed frames feed the
	// allocator's free list, and free-list order decides which frames
	// later allocations receive, so map iteration here would make
	// whole-machine runs nondeterministic.
	for _, key := range sortedKeys(g.sharedPTE) {
		g.kern.releaseSharedTableAtLevel(g.sharedPTE[key], memdefs.LvlPTE)
		delete(g.sharedPTE, key)
	}
	for _, key := range sortedKeys(g.sharedPMD) {
		g.kern.releaseSharedTableAtLevel(g.sharedPMD[key], memdefs.LvlPMD)
		delete(g.sharedPMD, key)
	}
	for _, key := range sortedKeys(g.maskPages) {
		g.kern.Mem.Unref(g.maskPages[key].Frame)
		delete(g.maskPages, key)
	}
}

// Region returns the named group-wide region, allocating address space on
// first use. Every process of the group sees the same group-VA range, so
// replicated containers running the same program get identical layouts.
// Regions are 2MB-aligned (and padded) so distinct regions never share a
// PTE table. Redefining a name with a different shape, asking for a
// non-positive size, or exhausting the segment's address span are caller
// errors, not kernel bugs.
func (g *Group) Region(name string, seg Seg, pages int) (Region, error) {
	if r, ok := g.regions[name]; ok {
		if r.Pages != pages || r.Seg != seg {
			return Region{}, fmt.Errorf("kernel: region %q redefined (%v/%d vs %v/%d)",
				name, r.Seg, r.Pages, seg, pages)
		}
		return r, nil
	}
	if pages <= 0 {
		return Region{}, fmt.Errorf("kernel: region %q with %d pages", name, pages)
	}
	start := g.segCursor[seg]
	// Align to 2MB.
	const hugeMask = memdefs.HugePageSize2M - 1
	start = (start + hugeMask) &^ memdefs.VAddr(hugeMask)
	end := start + memdefs.VAddr(pages)*memdefs.PageSize
	end = (end + hugeMask) &^ memdefs.VAddr(hugeMask)
	next := end + memdefs.HugePageSize2M // guard gap
	if next >= segBases[seg]+segSpan {
		return Region{}, fmt.Errorf("kernel: segment %v exhausted in group %q", seg, g.Name)
	}
	g.segCursor[seg] = next
	r := Region{Name: name, Seg: seg, Start: start, Pages: pages}
	g.regions[name] = r
	return r, nil
}

// MustRegion is Region for tests and static deploy scripts; it treats
// failure as an invariant violation.
func (g *Group) MustRegion(name string, seg Seg, pages int) Region {
	r, err := g.Region(name, seg, pages)
	if err != nil {
		bug("MustRegion: %v", err)
	}
	return r
}

// ChunkedRegion allocates a region split into chunkPages-sized chunks
// placed gapBytes apart (1GB gaps put every chunk under its own PMD
// table and PUD entry, modelling address-space-spread mappings). The
// result is idempotent per name.
func (g *Group) ChunkedRegion(name string, seg Seg, pages, chunkPages int, gapBytes uint64) (Region, error) {
	if r, ok := g.regions[name]; ok {
		if r.Pages != pages || r.Seg != seg || r.ChunkPages != chunkPages {
			return Region{}, fmt.Errorf("kernel: chunked region %q redefined", name)
		}
		return r, nil
	}
	if chunkPages <= 0 || pages <= 0 {
		return Region{}, fmt.Errorf("kernel: bad chunked region %q (%d pages, %d chunk)", name, pages, chunkPages)
	}
	nChunks := (pages + chunkPages - 1) / chunkPages
	r := Region{Name: name, Seg: seg, Pages: pages, ChunkPages: chunkPages}
	for c := 0; c < nChunks; c++ {
		sub, err := g.Region(fmt.Sprintf("%s#%d", name, c), seg, chunkPages)
		if err != nil {
			return Region{}, err
		}
		r.ChunkStarts = append(r.ChunkStarts, sub.Start)
		// Advance the cursor by the requested gap so chunks land in
		// distinct PMD (and, with 1GB gaps, PUD) regions.
		if gapBytes > 0 {
			cur := g.segCursor[seg]
			aligned := (cur + memdefs.VAddr(gapBytes) - 1) &^ (memdefs.VAddr(gapBytes) - 1)
			g.segCursor[seg] = aligned
		}
	}
	r.Start = r.ChunkStarts[0]
	g.regions[name] = r
	return r, nil
}

// MustChunkedRegion is ChunkedRegion for tests and static deploy scripts.
func (g *Group) MustChunkedRegion(name string, seg Seg, pages, chunkPages int, gapBytes uint64) Region {
	r, err := g.ChunkedRegion(name, seg, pages, chunkPages, gapBytes)
	if err != nil {
		bug("MustChunkedRegion: %v", err)
	}
	return r
}

// MaskPage is the per-PMD-table-set software structure of the Appendix:
// up to 512 PC bitmasks (one per pmd_t entry, i.e. one per 2MB region)
// and one ordered pid_list of at most 32 CoW-writing processes. It
// occupies one kernel frame (the 0.19% space overhead of Section VII-D).
type MaskPage struct {
	RegionKey uint64 // group VA >> 30
	Frame     memdefs.PPN
	pids      []memdefs.PID
	masks     [memdefs.TableSize]uint32
}

// bitOf returns the PC-bitmask bit index assigned to pid, if any.
func (mp *MaskPage) bitOf(pid memdefs.PID) (int, bool) {
	for i, p := range mp.pids {
		if p == pid {
			return i, true
		}
	}
	return 0, false
}

// Writers returns the number of processes holding PC bits.
func (mp *MaskPage) Writers() int { return len(mp.pids) }

// MaskAt returns the PC bitmask of the 2MB region with pmd index i.
func (mp *MaskPage) MaskAt(i int) uint32 { return mp.masks[i&(memdefs.TableSize-1)] }

// maskForVPN returns the PC bitmask covering a 4KB VPN.
func (mp *MaskPage) maskForVPN(vpn memdefs.VPN) uint32 {
	return mp.masks[(uint64(vpn)>>memdefs.EntryBits)&(memdefs.TableSize-1)]
}

// regionKey2M returns the 2MB-region key of a group VA (one PTE table).
func regionKey2M(gva memdefs.VAddr) uint64 { return uint64(gva) >> memdefs.HugePageShift2M }

// regionKey1G returns the 1GB-region key of a group VA (one PMD table set
// → one MaskPage).
func regionKey1G(gva memdefs.VAddr) uint64 { return uint64(gva) >> memdefs.HugePageShift1G }

// maskPageFor finds (or, when create is set, allocates) the MaskPage
// covering a 4KB VPN. Allocation failure propagates as ErrOutOfMemory;
// a nil MaskPage with nil error means "not present and not created".
func (g *Group) maskPageFor(vpn memdefs.VPN, create bool) (*MaskPage, error) {
	key := uint64(vpn) >> (memdefs.HugePageShift1G - memdefs.PageShift)
	mp, ok := g.maskPages[key]
	if !ok && create {
		frame, err := g.kern.allocFrame(physmem.FrameKernel)
		if err != nil {
			return nil, err
		}
		mp = &MaskPage{RegionKey: key, Frame: frame}
		g.maskPages[key] = mp
		g.kern.stats.MaskPages++
	}
	return mp, nil
}

// MaskPages returns the group's MaskPages (diagnostics/space accounting).
func (g *Group) MaskPages() []*MaskPage {
	out := make([]*MaskPage, 0, len(g.maskPages))
	for _, mp := range g.maskPages {
		out = append(out, mp)
	}
	return out
}

// SharedPTETables returns the number of group-shared last-level tables.
func (g *Group) SharedPTETables() int { return len(g.sharedPTE) }

// SharedTableFor reports the group's shared PTE table for a group VA, if
// registered.
func (g *Group) SharedTableFor(gva memdefs.VAddr) (memdefs.PPN, bool) {
	ppn, ok := g.sharedPTE[regionKey2M(gva)]
	return ppn, ok
}
