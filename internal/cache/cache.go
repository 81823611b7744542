// Package cache models a write-back, write-allocate, set-associative cache
// hierarchy with LRU replacement and fixed per-level access times
// (Table I of the paper: L1 2 cycles, L2 8, L3 32). Caches are physically
// indexed and tagged, so page-walk references to page-table frames shared
// between containers naturally hit on lines fetched by other containers —
// the cross-container prefetching effect BabelFish exploits.
//
// Only tags are modelled (no data contents); the simulator's timing and
// sharing behaviour do not depend on data values.
//
// Each level is a memsys.Device and a memsys.Port: the Where type and the
// Backend interface now live in internal/memsys (aliased here for
// compatibility), and Access carries the access kind so injection
// wrappers and telemetry can distinguish fetches, data and walks.
package cache

import (
	"fmt"
	"math/bits"
	"strings"

	"babelfish/internal/memdefs"
	"babelfish/internal/memsys"
	"babelfish/internal/telemetry"
)

// Where identifies the level that ultimately served an access.
// It is an alias of memsys.Where.
type Where = memsys.Where

const (
	WhereSelf = memsys.WhereSelf
	WhereL1   = memsys.WhereL1
	WhereL2   = memsys.WhereL2
	WhereL3   = memsys.WhereL3
	WhereMem  = memsys.WhereMem
)

// Backend is anything that can serve a physical memory access and report
// the latency and the level that served it. It is an alias of memsys.Port.
type Backend = memsys.Port

// Config describes one cache level.
type Config struct {
	Name       string
	SizeBytes  int
	Ways       int
	LineSize   int
	AccessTime memdefs.Cycles
	Level      Where // which Where this cache reports on hit
}

// Stats counts per-level events.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Writebacks uint64
}

// Tag words pack a line's state into one uint64 so a set probe touches a
// single contiguous run of words (one host cache line for 8 ways): the
// block tag in the low bits, valid and dirty flags on top. Physical
// block numbers fit well below bit 56 (PAddr is a byte address of at
// most 4GB-scale simulated memory), so the flag bits never collide.
const (
	lineValid = 1 << 63
	lineDirty = 1 << 62
)

// Cache is one set-associative cache level backed by a lower level.
//
// Geometry is flat: tags[set*ways+way] holds the packed tag word, and
// each set is kept in recency order — way 0 is the most recently used
// line and the last way the least, so the last way is always the victim.
// A hit moves its line to way 0 and shifts the more recent lines down
// one way; a miss drops the last way and shifts the whole set down to
// make room at way 0. Invalid lines therefore form a suffix of the set:
// a set starts empty, fills enter at the front, and only InvalidateAll
// invalidates (the whole cache at once). Evicting the last way is exact
// LRU with no per-line ticks, and the common repeated-line probe stays a
// single compare at way 0.
type Cache struct {
	cfg     Config
	below   Backend
	tags    []uint64
	ways    int
	numSets int
	lineOff uint
	stats   Stats
}

// New builds a cache level. Panics on a non-power-of-two line size or
// set count since configurations are fixed at build time.
func New(cfg Config, below Backend) *Cache {
	if cfg.LineSize <= 0 || cfg.Ways <= 0 || cfg.SizeBytes <= 0 {
		panic("cache: invalid config " + cfg.Name)
	}
	if cfg.LineSize&(cfg.LineSize-1) != 0 {
		panic(fmt.Sprintf("cache %s: line size %d not a power of two", cfg.Name, cfg.LineSize))
	}
	numLines := cfg.SizeBytes / cfg.LineSize
	numSets := numLines / cfg.Ways
	if numSets == 0 {
		numSets = 1
	}
	if numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("cache %s: sets %d not a power of two", cfg.Name, numSets))
	}
	return &Cache{
		cfg:     cfg,
		below:   below,
		tags:    make([]uint64, numSets*cfg.Ways),
		ways:    cfg.Ways,
		numSets: numSets,
		lineOff: uint(bits.TrailingZeros(uint(cfg.LineSize))),
	}
}

// Name returns the configured name.
func (c *Cache) Name() string { return c.cfg.Name }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters (used between warm-up and measurement).
func (c *Cache) ResetStats() { c.stats = Stats{} }

// DeviceStats implements memsys.Device.
func (c *Cache) DeviceStats() memsys.Stats {
	return memsys.Stats{
		{Name: "accesses", Unit: "acc", Help: "cache accesses", Value: c.stats.Accesses},
		{Name: "hits", Unit: "hit", Help: "cache hits", Value: c.stats.Hits},
		{Name: "misses", Unit: "miss", Help: "cache misses", Value: c.stats.Misses},
		{Name: "writebacks", Unit: "wb", Help: "dirty lines written back", Value: c.stats.Writebacks},
	}
}

// Register installs this level's stats under "cache.<name>".
func (c *Cache) Register(reg *telemetry.Registry) {
	memsys.RegisterDevice(reg, "cache."+strings.ToLower(c.cfg.Name), c)
}

// SetBelow swaps the backing port (nil restores nothing — callers pass the
// original backend). The machine uses this to interpose a fault-injection
// port between the L3 and DRAM.
func (c *Cache) SetBelow(below Backend) { c.below = below }

// Below returns the current backing port.
func (c *Cache) Below() Backend { return c.below }

// Access performs a read or write. On a miss the line is fetched from the
// level below (write-allocate); a dirty victim counts as a writeback but
// adds no latency (posted writes). The access kind is passed through to
// the level below for observers; the cache itself is kind-agnostic.
func (c *Cache) Access(pa memdefs.PAddr, kind memdefs.AccessKind, write bool) (memdefs.Cycles, Where) {
	c.stats.Accesses++
	blk := uint64(pa) >> c.lineOff
	base := (int(blk) & (c.numSets - 1)) * c.ways
	want := blk | lineValid
	tags := c.tags[base : base+c.ways]
	// MRU fast path: a repeated line is already at way 0.
	if tags[0]&^lineDirty == want {
		c.stats.Hits++
		if write {
			tags[0] |= lineDirty
		}
		return c.cfg.AccessTime, c.cfg.Level
	}
	for i := 1; i < len(tags); i++ {
		if w := tags[i]; w&^lineDirty == want {
			c.stats.Hits++
			if write {
				w |= lineDirty
			}
			copy(tags[1:i+1], tags[:i])
			tags[0] = w
			return c.cfg.AccessTime, c.cfg.Level
		}
	}
	c.stats.Misses++
	lat, where := c.below.Access(pa, kind, false)
	// The last way is the LRU line (or invalid, if the set is not full).
	last := len(tags) - 1
	if tags[last]&(lineValid|lineDirty) == lineValid|lineDirty {
		c.stats.Writebacks++
	}
	copy(tags[1:], tags[:last])
	if write {
		want |= lineDirty
	}
	tags[0] = want
	return c.cfg.AccessTime + lat, where
}

// Contains reports whether pa's line is resident (no state change); used
// by tests and diagnostics.
func (c *Cache) Contains(pa memdefs.PAddr) bool {
	blk := uint64(pa) >> c.lineOff
	base := (int(blk) & (c.numSets - 1)) * c.ways
	want := blk | lineValid
	for _, w := range c.tags[base : base+c.ways] {
		if w&^lineDirty == want {
			return true
		}
	}
	return false
}

// InvalidateAll empties the cache (used by tests).
func (c *Cache) InvalidateAll() { clear(c.tags) }

// Hierarchy bundles one core's private L1 (split I/D) and L2, all sharing
// an L3 (which is shared between cores).
type Hierarchy struct {
	L1I *Cache
	L1D *Cache
	L2  *Cache
}

// HierarchyConfig holds the per-level geometry for a core.
type HierarchyConfig struct {
	L1I, L1D, L2 Config
}

// DefaultHierarchyConfig returns Table I's cache parameters.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1I: Config{Name: "L1I", SizeBytes: 32 << 10, Ways: 8, LineSize: 64, AccessTime: 2, Level: WhereL1},
		L1D: Config{Name: "L1D", SizeBytes: 32 << 10, Ways: 8, LineSize: 64, AccessTime: 2, Level: WhereL1},
		L2:  Config{Name: "L2", SizeBytes: 256 << 10, Ways: 8, LineSize: 64, AccessTime: 8, Level: WhereL2},
	}
}

// DefaultL3Config returns Table I's shared L3 parameters.
func DefaultL3Config() Config {
	return Config{Name: "L3", SizeBytes: 8 << 20, Ways: 16, LineSize: 64, AccessTime: 32, Level: WhereL3}
}

// NewHierarchy builds a core's private levels on top of the shared L3.
func NewHierarchy(cfg HierarchyConfig, l3 *Cache) *Hierarchy {
	l2 := New(cfg.L2, l3)
	return &Hierarchy{
		L1I: New(cfg.L1I, l2),
		L1D: New(cfg.L1D, l2),
		L2:  l2,
	}
}

// Access routes a request by kind: instruction fetches through L1I, page
// walks past the L1 into the unified L2 (as in the paper's Figure 7,
// where walk requests "miss in the local L2 but hit in the shared L3"),
// everything else through L1D. This makes the whole hierarchy a
// memsys.Port, so injection wrappers can interpose on a core's entire
// memory traffic.
func (h *Hierarchy) Access(pa memdefs.PAddr, kind memdefs.AccessKind, write bool) (memdefs.Cycles, Where) {
	switch kind {
	case memdefs.AccessInstr:
		return h.L1I.Access(pa, kind, false)
	case memdefs.AccessWalk:
		return h.L2.Access(pa, kind, write)
	default:
		return h.L1D.Access(pa, kind, write)
	}
}

// Data performs a data access through L1D.
func (h *Hierarchy) Data(pa memdefs.PAddr, write bool) (memdefs.Cycles, Where) {
	return h.L1D.Access(pa, memdefs.AccessData, write)
}

// Instr performs an instruction fetch through L1I.
func (h *Hierarchy) Instr(pa memdefs.PAddr) (memdefs.Cycles, Where) {
	return h.L1I.Access(pa, memdefs.AccessInstr, false)
}

// Walker performs a page-walker access; walkers bypass the L1 and go to
// the unified L2.
func (h *Hierarchy) Walker(pa memdefs.PAddr, write bool) (memdefs.Cycles, Where) {
	return h.L2.Access(pa, memdefs.AccessWalk, write)
}

// ResetStats clears all three private levels.
func (h *Hierarchy) ResetStats() {
	h.L1I.ResetStats()
	h.L1D.ResetStats()
	h.L2.ResetStats()
}

var (
	_ memsys.Port   = (*Cache)(nil)
	_ memsys.Port   = (*Hierarchy)(nil)
	_ memsys.Device = (*Cache)(nil)
)
