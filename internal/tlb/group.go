package tlb

import (
	"babelfish/internal/memdefs"
	"babelfish/internal/memsys"
	"babelfish/internal/telemetry"
)

// Group bundles the per-page-size TLB structures of one level (the paper's
// L1 D-TLB has separate 4KB/2MB/1GB arrays; the L2 TLB likewise). A probe
// consults all size classes in parallel; the latency is the maximum of the
// structures consulted (they are accessed concurrently in hardware).
type Group struct {
	BydSize [memdefs.NumPageSizes]*TLB // nil for absent classes
	name    string
}

// GroupConfig lists the structures of a group; absent classes stay nil.
// Name identifies the group as a memsys.Device ("tlb.l1d", "tlb.l2", ...).
type GroupConfig struct {
	Name    string
	Structs []Config
}

// NewGroup builds the group.
func NewGroup(cfg GroupConfig) *Group {
	g := &Group{name: cfg.Name}
	if g.name == "" {
		g.name = "tlb"
	}
	for _, c := range cfg.Structs {
		g.BydSize[c.Size] = New(c)
	}
	return g
}

// GroupResult reports a group probe.
type GroupResult struct {
	Res   Result
	Entry *Entry
	Size  memdefs.PageSizeClass
	Lat   memdefs.Cycles
}

// Lookup probes every size class with the size-appropriate VPN of va.
// A Hit in any class wins; otherwise a CoW/prot fault outranks a miss.
func (g *Group) Lookup(va memdefs.VAddr, q Lookup) GroupResult {
	out := GroupResult{Res: Miss}
	for sz := memdefs.Page4K; sz < memdefs.NumPageSizes; sz++ {
		t := g.BydSize[sz]
		if t == nil {
			continue
		}
		// q is already this call's private copy, so patch the VPN in
		// place and pass it by pointer rather than copying the whole
		// Lookup per size class.
		q.VPN = sz.VPNOf(va)
		res, e, lat := t.lookupEntry(&q)
		if lat > out.Lat {
			out.Lat = lat
		}
		switch res {
		case Hit:
			out.Res, out.Entry, out.Size = Hit, e, sz
			return out
		case HitCoWFault, HitProtFault:
			if out.Res == Miss {
				out.Res, out.Entry, out.Size = res, e, sz
			}
		}
	}
	return out
}

// Insert fills the structure of the entry's size class (no-op if the group
// lacks that class).
func (g *Group) Insert(sz memdefs.PageSizeClass, e Entry) {
	if t := g.BydSize[sz]; t != nil {
		t.Insert(e)
	}
}

// InvalidateVA removes all entries covering va in every size class.
func (g *Group) InvalidateVA(va memdefs.VAddr) int {
	n := 0
	for sz := memdefs.Page4K; sz < memdefs.NumPageSizes; sz++ {
		if t := g.BydSize[sz]; t != nil {
			n += t.InvalidateVPN(sz.VPNOf(va))
		}
	}
	return n
}

// InvalidateSharedVA removes only shared (O==0) entries covering va for a
// CCID group.
func (g *Group) InvalidateSharedVA(va memdefs.VAddr, ccid memdefs.CCID) int {
	n := 0
	for sz := memdefs.Page4K; sz < memdefs.NumPageSizes; sz++ {
		if t := g.BydSize[sz]; t != nil {
			n += t.InvalidateSharedVPN(sz.VPNOf(va), ccid)
		}
	}
	return n
}

// FlushPCID invalidates one process's entries in every structure.
func (g *Group) FlushPCID(pcid memdefs.PCID) int {
	n := 0
	for _, t := range g.BydSize {
		if t != nil {
			n += t.FlushPCID(pcid)
		}
	}
	return n
}

// FlushAll empties every structure.
func (g *Group) FlushAll() {
	for _, t := range g.BydSize {
		if t != nil {
			t.FlushAll()
		}
	}
}

// ForEachValid calls fn for every valid entry in every size class, with
// the entry's size class. Used by the kernel TLB-consistency audit.
func (g *Group) ForEachValid(fn func(memdefs.PageSizeClass, *Entry)) {
	for sz := memdefs.Page4K; sz < memdefs.NumPageSizes; sz++ {
		t := g.BydSize[sz]
		if t == nil {
			continue
		}
		t.ForEachValid(func(e *Entry) { fn(sz, e) })
	}
}

// Stats sums the counters across size classes.
func (g *Group) Stats() Stats {
	var s Stats
	for _, t := range g.BydSize {
		if t == nil {
			continue
		}
		ts := t.Stats()
		s.Accesses += ts.Accesses
		s.Hits += ts.Hits
		s.Misses += ts.Misses
		s.SharedHits += ts.SharedHits
		s.MaskChecks += ts.MaskChecks
		s.PrivateCopySkips += ts.PrivateCopySkips
		s.CoWFaultHits += ts.CoWFaultHits
		s.ProtFaultHits += ts.ProtFaultHits
		s.Fills += ts.Fills
		s.MaskLoads += ts.MaskLoads
		s.Invalidations += ts.Invalidations
		s.Evictions += ts.Evictions
	}
	return s
}

// ResetStats zeroes every structure's counters.
func (g *Group) ResetStats() {
	for _, t := range g.BydSize {
		if t != nil {
			t.ResetStats()
		}
	}
}

// Name returns the configured device name ("tlb.l1d", "tlb.l2", ...).
func (g *Group) Name() string { return g.name }

// DeviceStats implements memsys.Device: the summed counters as named
// stats. The first eight match the metric names the simulator has always
// exported for the L2 group; the rest are additive.
func (g *Group) DeviceStats() memsys.Stats {
	s := g.Stats()
	return memsys.Stats{
		{Name: "accesses", Unit: "probe", Help: "TLB probes", Value: s.Accesses},
		{Name: "hits", Unit: "hit", Help: "TLB structure hits", Value: s.Hits},
		{Name: "misses", Unit: "miss", Help: "TLB structure misses", Value: s.Misses},
		{Name: "shared_hits", Unit: "hit", Help: "hits on entries brought in by another process", Value: s.SharedHits},
		{Name: "mask_checks", Unit: "check", Help: "Figure-8 PC-bitmask reads", Value: s.MaskChecks},
		{Name: "fills", Unit: "fill", Help: "entries installed", Value: s.Fills},
		{Name: "evictions", Unit: "evict", Help: "entries evicted", Value: s.Evictions},
		{Name: "invalidations", Unit: "inv", Help: "entries invalidated by shootdowns", Value: s.Invalidations},
		{Name: "private_copy_skips", Unit: "skip", Help: "shared hits rejected by a set PC bit", Value: s.PrivateCopySkips},
		{Name: "cow_fault_hits", Unit: "hit", Help: "hits that raised a CoW fault", Value: s.CoWFaultHits},
		{Name: "prot_fault_hits", Unit: "hit", Help: "hits that raised a protection fault", Value: s.ProtFaultHits},
		{Name: "mask_loads", Unit: "load", Help: "PC-bitmask fetches from memory", Value: s.MaskLoads},
	}
}

// Register installs the group's stats under its configured name.
func (g *Group) Register(reg *telemetry.Registry) { memsys.RegisterDevice(reg, g.name, g) }

var _ memsys.Device = (*Group)(nil)

// Table I group configurations. mode is TagPCID for the baseline (and for
// BabelFish's L1 under ASLR-HW) and TagCCID for BabelFish structures.

// L1DConfig returns the per-core L1 data-TLB group.
func L1DConfig(mode Mode) GroupConfig {
	return GroupConfig{Name: "tlb.l1d", Structs: []Config{
		{Name: "L1D-4K", Entries: 64, Ways: 4, Size: memdefs.Page4K, Mode: mode, AccessTime: 1},
		{Name: "L1D-2M", Entries: 32, Ways: 4, Size: memdefs.Page2M, Mode: mode, AccessTime: 1},
		{Name: "L1D-1G", Entries: 4, Ways: 0, Size: memdefs.Page1G, Mode: mode, AccessTime: 1},
	}}
}

// L1IConfig returns the per-core L1 instruction-TLB group.
func L1IConfig(mode Mode) GroupConfig {
	return GroupConfig{Name: "tlb.l1i", Structs: []Config{
		{Name: "L1I-4K", Entries: 64, Ways: 4, Size: memdefs.Page4K, Mode: mode, AccessTime: 1},
	}}
}

// L2Config returns the per-core unified L2 TLB group. When larger is true,
// the 4KB/2MB structures are grown by 50% (1536 → 2304 entries, 12 → 18
// ways), modelling the §VII-C comparison that spends BabelFish's extra tag
// bits (CCID + O-PC ≈ 46 bits/entry) on conventional capacity instead.
func L2Config(mode Mode, larger bool) GroupConfig {
	at, atMask := memdefs.Cycles(10), memdefs.Cycles(12)
	entries, ways := 1536, 12
	if larger {
		entries, ways = 2304, 18
	}
	return GroupConfig{Name: "tlb.l2", Structs: []Config{
		{Name: "L2-4K", Entries: entries, Ways: ways, Size: memdefs.Page4K, Mode: mode, AccessTime: at, AccessTimeMask: atMask},
		{Name: "L2-2M", Entries: entries, Ways: ways, Size: memdefs.Page2M, Mode: mode, AccessTime: at, AccessTimeMask: atMask},
		{Name: "L2-1G", Entries: 16, Ways: 4, Size: memdefs.Page1G, Mode: mode, AccessTime: at, AccessTimeMask: atMask},
	}}
}
