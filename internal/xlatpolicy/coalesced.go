package xlatpolicy

import (
	"fmt"

	"babelfish/internal/memdefs"
	"babelfish/internal/memsys"
	"babelfish/internal/pgtable"
	"babelfish/internal/physmem"
	"babelfish/internal/tlb"
)

// CoalescedConfig sizes the coalesced-run TLB (Ban & Cheng, "CoLT"-style
// coalescing: contiguous VPN→PPN runs are common because the buddy
// allocator hands out contiguous frames, so one entry can cover a whole
// run). On a page-walk fill the policy scans the leaf PTE's aligned
// 8-entry window for a contiguous run of identically-flagged entries
// containing the filled page; runs of 2..8 pages are cached as a single
// run entry. An L2 TLB miss probes the run store before walking.
type CoalescedConfig struct {
	// Runs is the number of run entries (default 256 — up to 2048 pages
	// of reach in 256 entries).
	Runs int
	// Ways is the structure's associativity (default 4).
	Ways int
	// ProbeLat is charged per probe, hit or miss (default 10, an
	// L2-TLB-class structure).
	ProbeLat memdefs.Cycles
	// Mode is the tag/match rule. Under TagCCID only shared clean pages
	// (O==0, ORPC==0) are coalesced, so runs never need O-PC checks.
	Mode tlb.Mode
}

func (c CoalescedConfig) withDefaults() CoalescedConfig {
	if c.Runs <= 0 {
		c.Runs = 256
	}
	if c.Ways <= 0 {
		c.Ways = 4
	}
	if c.ProbeLat <= 0 {
		c.ProbeLat = 10
	}
	return c
}

// coalRun is one coalesced entry: Len contiguous 4KB translations
// starting at (BaseVPN → BasePPN), uniform in permissions and CoW state,
// confined to one aligned 8-PTE window (so a run maps to exactly one set
// of the store).
type coalRun struct {
	valid     bool
	baseVPN   memdefs.VPN
	basePPN   memdefs.PPN
	len       uint8
	perm      memdefs.Perm
	cow       bool
	pcid      memdefs.PCID
	ccid      memdefs.CCID
	broughtBy memdefs.PID
	lru       uint64
}

func (r *coalRun) covers(vpn memdefs.VPN) bool {
	return r.valid && vpn >= r.baseVPN && vpn < r.baseVPN+memdefs.VPN(r.len)
}

// CoalescedCore is the per-core run store. Exported (with Run/Occupancy
// accessors) so the contiguity tests can assert run formation and
// breakage directly.
type CoalescedCore struct {
	cfg     CoalescedConfig
	mem     *physmem.Memory
	runs    []coalRun
	numSets int
	tick    uint64

	probes, hits, fills   uint64
	pages, invals, evicts uint64
}

// NewCoalescedCore builds a run store over the live page tables.
func NewCoalescedCore(cfg CoalescedConfig, mem *physmem.Memory) *CoalescedCore {
	cfg = cfg.withDefaults()
	numSets := cfg.Runs / cfg.Ways
	if numSets == 0 {
		numSets = 1
	}
	if numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("xlatpolicy: coalesced sets %d not a power of two", numSets))
	}
	return &CoalescedCore{
		cfg:     cfg,
		mem:     mem,
		runs:    make([]coalRun, numSets*cfg.Ways),
		numSets: numSets,
	}
}

// set returns the flat index of the first way of vpn's set. Runs live in
// one aligned 8-PTE window, so every page of a run indexes the same set.
func (c *CoalescedCore) set(vpn memdefs.VPN) int {
	return (int(vpn>>3) & (c.numSets - 1)) * c.cfg.Ways
}

func (c *CoalescedCore) ProbeMiss(p MissProbe) (MissResult, bool) {
	c.probes++
	c.tick++
	vpn := memdefs.PageVPN(p.SVA)
	base := c.set(vpn)
	for i := base; i < base+c.cfg.Ways; i++ {
		r := &c.runs[i]
		if !r.covers(vpn) {
			continue
		}
		if c.cfg.Mode == tlb.TagCCID {
			if r.ccid != p.Q.CCID {
				continue
			}
		} else if r.pcid != p.Q.PCID {
			continue
		}
		// A write to a CoW or read-only run, or an exec of a non-exec
		// run, falls through to the walk, which classifies the fault
		// with full kernel accounting.
		if p.Q.Write && (r.cow || !r.perm.CanWrite()) {
			return MissResult{}, false
		}
		if p.Q.Exec && !r.perm.CanExec() {
			return MissResult{}, false
		}
		c.hits++
		r.lru = c.tick
		return MissResult{
			Entry: tlb.Entry{
				VPN:       vpn,
				PPN:       r.basePPN + memdefs.PPN(vpn-r.baseVPN),
				Perm:      r.perm,
				CoW:       r.cow,
				PCID:      r.pcid,
				CCID:      r.ccid,
				BroughtBy: r.broughtBy,
			},
			Lat: c.cfg.ProbeLat,
		}, true
	}
	return MissResult{}, false
}

func (c *CoalescedCore) MissPenalty() memdefs.Cycles { return c.cfg.ProbeLat }

// OnWalkFill scans the filled leaf's aligned 8-PTE window for the
// maximal contiguous run through it. Contiguity requires present leaf
// PTEs with frame numbers in lockstep with the index and uniform
// permission/CoW bits; under TagCCID the whole run must additionally be
// shared clean state (no Owned or ORPC bits), so a run entry never needs
// the Figure-8 mask machinery.
func (c *CoalescedCore) OnWalkFill(f WalkFill) {
	if f.Size != memdefs.Page4K {
		return
	}
	e := &f.Entry
	if c.cfg.Mode == tlb.TagCCID && (e.Owned || e.ORPC) {
		return
	}
	w := f.Index &^ 7
	var window [8]pgtable.Entry
	for j := 0; j < 8; j++ {
		window[j] = pgtable.Entry(c.mem.ReadEntry(f.Table, w+j))
	}
	at := f.Index - w // filled page's slot in the window
	match := func(j int) bool {
		pe := window[j]
		if !pe.Present() || pe.Huge() {
			return false
		}
		if pe.PPN() != e.PPN+memdefs.PPN(j-at) {
			return false
		}
		if pe.Perm() != e.Perm || pe.CoW() != e.CoW {
			return false
		}
		if c.cfg.Mode == tlb.TagCCID && (pe.Owned() || pe.ORPC()) {
			return false
		}
		return true
	}
	start, end := at, at+1
	for start > 0 && match(start-1) {
		start--
	}
	for end < 8 && match(end) {
		end++
	}
	if end-start < 2 {
		return // nothing to coalesce
	}
	c.fills++
	c.pages += uint64(end - start)
	c.tick++
	run := coalRun{
		valid:     true,
		baseVPN:   e.VPN - memdefs.VPN(at-start),
		basePPN:   e.PPN - memdefs.PPN(at-start),
		len:       uint8(end - start),
		perm:      e.Perm,
		cow:       e.CoW,
		pcid:      e.PCID,
		ccid:      e.CCID,
		broughtBy: e.BroughtBy,
		lru:       c.tick,
	}
	base := c.set(e.VPN)
	victim := base
	bestLRU := ^uint64(0)
	for i := base; i < base+c.cfg.Ways; i++ {
		r := &c.runs[i]
		if !r.valid {
			victim, bestLRU = i, 0
			break
		}
		if r.lru < bestLRU {
			victim, bestLRU = i, r.lru
		}
	}
	if c.runs[victim].valid {
		c.evicts++
	}
	c.runs[victim] = run
}

// dropCovering invalidates every run covering vpn that keep matches;
// a run is dropped whole — one stale page poisons all of it.
func (c *CoalescedCore) dropCovering(vpn memdefs.VPN, keep func(*coalRun) bool) {
	base := c.set(vpn)
	for i := base; i < base+c.cfg.Ways; i++ {
		r := &c.runs[i]
		if r.covers(vpn) && !keep(r) {
			r.valid = false
			c.invals++
		}
	}
}

func (c *CoalescedCore) InvalidateVA(va memdefs.VAddr) {
	c.dropCovering(memdefs.PageVPN(va), func(*coalRun) bool { return false })
}

func (c *CoalescedCore) InvalidateSharedVA(va memdefs.VAddr, ccid memdefs.CCID) {
	// Runs are always shared (O==0) state; under TagPCID the CCID is not
	// a match criterion, mirroring tlb.InvalidateSharedVPN.
	c.dropCovering(memdefs.PageVPN(va), func(r *coalRun) bool {
		return c.cfg.Mode == tlb.TagCCID && r.ccid != ccid
	})
}

func (c *CoalescedCore) FlushPCID(pcid memdefs.PCID) {
	for i := range c.runs {
		if c.runs[i].valid && c.runs[i].pcid == pcid {
			c.runs[i].valid = false
			c.invals++
		}
	}
}

func (c *CoalescedCore) FlushAll() {
	for i := range c.runs {
		c.runs[i].valid = false
	}
}

func (c *CoalescedCore) CCIDTagged() bool { return c.cfg.Mode == tlb.TagCCID }

// ForEachValid expands every run into per-page 4KB entries for the
// TLB/PTE cross-check audit: each covered page must still be backed by a
// live PTE with the run's frame and flags, so a shootdown that failed to
// drop a whole run is caught page by page.
func (c *CoalescedCore) ForEachValid(fn func(memdefs.PageSizeClass, *tlb.Entry)) {
	for i := range c.runs {
		r := &c.runs[i]
		if !r.valid {
			continue
		}
		for j := 0; j < int(r.len); j++ {
			e := tlb.Entry{
				VPN:       r.baseVPN + memdefs.VPN(j),
				PPN:       r.basePPN + memdefs.PPN(j),
				Perm:      r.perm,
				CoW:       r.cow,
				PCID:      r.pcid,
				CCID:      r.ccid,
				BroughtBy: r.broughtBy,
			}
			fn(memdefs.Page4K, &e)
		}
	}
}

// Run reports the run covering vpn (tests).
func (c *CoalescedCore) Run(vpn memdefs.VPN) (base memdefs.VPN, length int, ok bool) {
	bi := c.set(vpn)
	for i := bi; i < bi+c.cfg.Ways; i++ {
		if c.runs[i].covers(vpn) {
			return c.runs[i].baseVPN, int(c.runs[i].len), true
		}
	}
	return 0, 0, false
}

// Occupancy reports the number of live runs (tests).
func (c *CoalescedCore) Occupancy() int {
	n := 0
	for i := range c.runs {
		if c.runs[i].valid {
			n++
		}
	}
	return n
}

// memsys.Device.

func (c *CoalescedCore) Name() string { return "xlat.coalesced" }

func (c *CoalescedCore) DeviceStats() memsys.Stats {
	return memsys.Stats{
		{Name: "probes", Unit: "probe", Help: "run-store probes after L2 TLB misses", Value: c.probes},
		{Name: "hits", Unit: "hit", Help: "walks avoided by a coalesced run", Value: c.hits},
		{Name: "fills", Unit: "fill", Help: "runs formed on walk fills", Value: c.fills},
		{Name: "run_pages", Unit: "page", Help: "pages covered by formed runs", Value: c.pages},
		{Name: "evictions", Unit: "evict", Help: "runs displaced by fills", Value: c.evicts},
		{Name: "invalidations", Unit: "inv", Help: "runs dropped by shootdowns", Value: c.invals},
	}
}

func (c *CoalescedCore) ResetStats() {
	c.probes, c.hits, c.fills = 0, 0, 0
	c.pages, c.invals, c.evicts = 0, 0, 0
}

var _ Core = (*CoalescedCore)(nil)
