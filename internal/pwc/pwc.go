// Package pwc models the per-core Page Walk Cache: a small translation
// cache holding recently-used entries of the first three page-table levels
// (PGD, PUD, PMD), 16 entries per level, 4-way, 1-cycle access (Table I).
//
// Entries are tagged by the physical address of the table entry they
// cache. This reproduces both regimes faithfully: baseline processes have
// distinct table frames, so they never share PWC entries; BabelFish
// processes that share sub-tables hit on each other's PWC entries on the
// same core.
package pwc

import (
	"babelfish/internal/memdefs"
	"babelfish/internal/memsys"
)

// Config sizes one PWC.
type Config struct {
	EntriesPerLevel int
	Ways            int
	AccessTime      memdefs.Cycles
}

// DefaultConfig returns Table I's PWC parameters.
func DefaultConfig() Config {
	return Config{EntriesPerLevel: 16, Ways: 4, AccessTime: 1}
}

// Stats counts PWC events, per level and total.
type Stats struct {
	Accesses uint64
	Hits     uint64
	Misses   uint64
	ByLevel  [memdefs.NumLevels]struct{ Hits, Misses uint64 }
}

type way struct {
	tag   memdefs.PAddr
	value uint64
	valid bool
	lru   uint64
}

// PWC is the page-walk cache. Only the upper three levels are cached
// (PTE-level entries go to the TLB, not the PWC).
type PWC struct {
	cfg     Config
	numSets int
	levels  [3][][]way // indexed by Level (PGD..PMD), then set, then way
	tick    uint64
	stats   Stats
}

// New builds a PWC.
func New(cfg Config) *PWC {
	ways := cfg.Ways
	if ways <= 0 {
		ways = 1
	}
	numSets := cfg.EntriesPerLevel / ways
	if numSets == 0 {
		numSets = 1
	}
	p := &PWC{cfg: cfg, numSets: numSets}
	for l := range p.levels {
		p.levels[l] = make([][]way, numSets)
		for s := range p.levels[l] {
			p.levels[l][s] = make([]way, ways)
		}
	}
	return p
}

// Stats returns a copy of the counters.
func (p *PWC) Stats() Stats { return p.stats }

// ResetStats zeroes the counters.
func (p *PWC) ResetStats() { p.stats = Stats{} }

// Name implements memsys.Device.
func (p *PWC) Name() string { return "pwc" }

// DeviceStats implements memsys.Device.
func (p *PWC) DeviceStats() memsys.Stats {
	return memsys.Stats{
		{Name: "accesses", Unit: "probe", Help: "page-walk cache probes", Value: p.stats.Accesses},
		{Name: "hits", Unit: "hit", Help: "page-walk cache hits", Value: p.stats.Hits},
		{Name: "misses", Unit: "miss", Help: "page-walk cache misses", Value: p.stats.Misses},
	}
}

var _ memsys.Device = (*PWC)(nil)

// Caches reports whether a level's entries are held in the PWC.
func Caches(lvl memdefs.Level) bool { return lvl < memdefs.LvlPTE }

func (p *PWC) set(lvl memdefs.Level, entryAddr memdefs.PAddr) []way {
	s := int(uint64(entryAddr)>>3) & (p.numSets - 1)
	return p.levels[lvl][s]
}

// Lookup probes the PWC for the cached value of the table entry at
// entryAddr for the given level. Returns (value, hit, latency).
func (p *PWC) Lookup(lvl memdefs.Level, entryAddr memdefs.PAddr) (uint64, bool, memdefs.Cycles) {
	if !Caches(lvl) {
		return 0, false, 0
	}
	p.stats.Accesses++
	p.tick++
	ws := p.set(lvl, entryAddr)
	for i := range ws {
		if ws[i].valid && ws[i].tag == entryAddr {
			ws[i].lru = p.tick
			p.stats.Hits++
			p.stats.ByLevel[lvl].Hits++
			return ws[i].value, true, p.cfg.AccessTime
		}
	}
	p.stats.Misses++
	p.stats.ByLevel[lvl].Misses++
	return 0, false, p.cfg.AccessTime
}

// Insert caches the entry value read during a walk.
func (p *PWC) Insert(lvl memdefs.Level, entryAddr memdefs.PAddr, value uint64) {
	if !Caches(lvl) {
		return
	}
	p.tick++
	ws := p.set(lvl, entryAddr)
	victim := 0
	for i := range ws {
		if !ws[i].valid {
			victim = i
			break
		}
		if ws[i].lru < ws[victim].lru {
			victim = i
		}
	}
	ws[victim] = way{tag: entryAddr, value: value, valid: true, lru: p.tick}
}

// InvalidateEntry drops a cached entry (table update/shootdown).
func (p *PWC) InvalidateEntry(lvl memdefs.Level, entryAddr memdefs.PAddr) {
	if !Caches(lvl) {
		return
	}
	ws := p.set(lvl, entryAddr)
	for i := range ws {
		if ws[i].valid && ws[i].tag == entryAddr {
			ws[i].valid = false
		}
	}
}

// FlushAll empties the PWC.
func (p *PWC) FlushAll() {
	for l := range p.levels {
		for s := range p.levels[l] {
			for i := range p.levels[l][s] {
				p.levels[l][s][i].valid = false
			}
		}
	}
}
