package xlatpolicy

import (
	"babelfish/internal/memdefs"
	"babelfish/internal/memsys"
	"babelfish/internal/telemetry"
	"babelfish/internal/tlb"
)

// VictimaConfig sizes the cache-resident translation store (Kanellopoulos
// et al., "Victima: Drastically Increasing Address Translation Reach by
// Leveraging Underutilized Cache Resources", MICRO 2023). Victima
// repurposes underutilized L2 cache lines to hold TLB-miss PTEs: on a
// page-walk completion the leaf translation is parked in the L2 cache,
// and a later L2 TLB miss probes those lines before walking.
//
// The model keeps the parked entries in a dedicated set-associative
// structure whose capacity is a fixed budget of repurposed L2 lines (one
// parked translation per 64B line) and charges the L2 cache's access
// latency per probe, rather than displacing modeled data lines — the
// translation-reach effect at the cost of a mild under-estimate of data
// cache pressure.
type VictimaConfig struct {
	// Entries is the repurposed-line budget (default 1024 of the 4096
	// lines of the 256KB L2 cache).
	Entries int
	// Ways is the structure's associativity (default 8, the L2's).
	Ways int
	// ProbeLat is charged per probe, hit or miss (default 8, the L2
	// cache's access time — the PTE lives in a cache line).
	ProbeLat memdefs.Cycles
	// Mode is the tag/match rule: TagPCID standalone, TagCCID when the
	// store sits under a BabelFish L2 (parked entries then carry the
	// O-PC field and the Figure-8 checks apply on probes).
	Mode tlb.Mode
}

func (c VictimaConfig) withDefaults() VictimaConfig {
	if c.Entries <= 0 {
		c.Entries = 1024
	}
	if c.Ways <= 0 {
		c.Ways = 8
	}
	if c.ProbeLat <= 0 {
		c.ProbeLat = 8
	}
	return c
}

// victimaCore is the per-core parked-PTE store. It reuses tlb.TLB for
// storage so the probe applies exactly the architecture's match rules
// (including O-PC under TagCCID) and every invalidation seam maps onto
// the TLB's own.
type victimaCore struct {
	store *tlb.TLB
	cfg   VictimaConfig

	probes, hits, fills uint64
}

// NewVictimaCore builds a parked-PTE store (exported for direct unit
// tests; machines get one via the "victima" policies' NewCore).
func NewVictimaCore(cfg VictimaConfig) Core {
	cfg = cfg.withDefaults()
	return &victimaCore{
		cfg: cfg,
		store: tlb.New(tlb.Config{
			Name:    "victima",
			Entries: cfg.Entries,
			Ways:    cfg.Ways,
			Size:    memdefs.Page4K,
			Mode:    cfg.Mode,
			// The probe latency is charged by the MMU (hit and miss
			// alike); the structure's own AccessTime is informational.
			AccessTime: cfg.ProbeLat,
		}),
	}
}

func (v *victimaCore) ProbeMiss(p MissProbe) (MissResult, bool) {
	v.probes++
	q := p.Q
	q.VPN = memdefs.PageVPN(p.SVA)
	res, e, _ := v.store.LookupEntry(q)
	if res != tlb.Hit {
		// CoW/prot classifications fall through to the walk, which takes
		// the fault with full kernel accounting; the ensuing shootdown
		// drops the parked entry through the invalidation mirror.
		return MissResult{}, false
	}
	v.hits++
	return MissResult{Entry: *e, Lat: v.cfg.ProbeLat}, true
}

func (v *victimaCore) MissPenalty() memdefs.Cycles { return v.cfg.ProbeLat }

func (v *victimaCore) OnWalkFill(f WalkFill) {
	// Only 4KB leaves are parked: huge pages already have 512× the reach
	// and would monopolize the repurposed lines.
	if f.Size != memdefs.Page4K {
		return
	}
	v.fills++
	v.store.Insert(f.Entry)
}

func (v *victimaCore) InvalidateVA(va memdefs.VAddr) {
	v.store.InvalidateVPN(memdefs.PageVPN(va))
}

func (v *victimaCore) InvalidateSharedVA(va memdefs.VAddr, ccid memdefs.CCID) {
	v.store.InvalidateSharedVPN(memdefs.PageVPN(va), ccid)
}

func (v *victimaCore) FlushPCID(pcid memdefs.PCID) { v.store.FlushPCID(pcid) }

func (v *victimaCore) FlushAll() { v.store.FlushAll() }

func (v *victimaCore) CCIDTagged() bool { return v.cfg.Mode == tlb.TagCCID }

func (v *victimaCore) ForEachValid(fn func(memdefs.PageSizeClass, *tlb.Entry)) {
	v.store.ForEachValid(func(e *tlb.Entry) { fn(memdefs.Page4K, e) })
}

// Occupancy reports the number of parked translations (tests).
func (v *victimaCore) Occupancy() int { return v.store.Occupancy() }

// memsys.Device.

func (v *victimaCore) Name() string { return "xlat.victima" }

func (v *victimaCore) DeviceStats() memsys.Stats {
	s := v.store.Stats()
	return memsys.Stats{
		{Name: "probes", Unit: "probe", Help: "parked-PTE store probes after L2 TLB misses", Value: v.probes},
		{Name: "hits", Unit: "hit", Help: "walks avoided by a parked PTE", Value: v.hits},
		{Name: "fills", Unit: "fill", Help: "leaf translations parked in repurposed L2 lines", Value: v.fills},
		{Name: "evictions", Unit: "evict", Help: "parked PTEs displaced by fills", Value: s.Evictions},
		{Name: "invalidations", Unit: "inv", Help: "parked PTEs dropped by shootdowns", Value: s.Invalidations},
	}
}

func (v *victimaCore) ResetStats() {
	v.probes, v.hits, v.fills = 0, 0, 0
	v.store.ResetStats()
}

func (v *victimaCore) Register(reg *telemetry.Registry) {
	memsys.RegisterDevice(reg, v.Name(), v)
}

var _ Core = (*victimaCore)(nil)
