// Package dram is a DDR-style main-memory timing model standing in for
// DRAMSim2: channels, ranks and banks selected by address bits, per-bank
// open-row tracking with row-buffer hit/miss/conflict timing, expressed in
// CPU cycles (2 GHz core, 1 GHz DDR memory as in Table I).
package dram

import (
	"babelfish/internal/memdefs"
	"babelfish/internal/memsys"
)

// Config describes the memory organization and timing.
type Config struct {
	Channels     int
	RanksPerChan int
	BanksPerRank int
	RowBytes     int // row-buffer size per bank

	// Timing in CPU cycles.
	RowHit  memdefs.Cycles // CAS only
	RowMiss memdefs.Cycles // precharge + activate + CAS
}

// DefaultConfig follows Table I: 2 channels, 8 ranks/channel, 8 banks/rank,
// 1 GHz DDR. Timings are typical DDR3-2000-class latencies seen from a
// 2 GHz core.
func DefaultConfig() Config {
	return Config{
		Channels:     2,
		RanksPerChan: 8,
		BanksPerRank: 8,
		RowBytes:     8 << 10,
		RowHit:       60,
		RowMiss:      120,
	}
}

// Stats counts row-buffer behaviour.
type Stats struct {
	Reads     uint64
	Writes    uint64
	RowHits   uint64
	RowMisses uint64
}

// DRAM is the main-memory backend at the bottom of the cache hierarchy.
type DRAM struct {
	cfg      Config
	numBanks int
	openRow  []int64 // per global bank; -1 = closed
	stats    Stats
}

// New builds a DRAM model.
func New(cfg Config) *DRAM {
	n := cfg.Channels * cfg.RanksPerChan * cfg.BanksPerRank
	if n <= 0 {
		n = 1
	}
	d := &DRAM{cfg: cfg, numBanks: n, openRow: make([]int64, n)}
	for i := range d.openRow {
		d.openRow[i] = -1
	}
	return d
}

// Stats returns a copy of the counters.
func (d *DRAM) Stats() Stats { return d.stats }

// ResetStats zeroes the counters.
func (d *DRAM) ResetStats() { d.stats = Stats{} }

// Name implements memsys.Device.
func (d *DRAM) Name() string { return "dram" }

// DeviceStats implements memsys.Device.
func (d *DRAM) DeviceStats() memsys.Stats {
	return memsys.Stats{
		{Name: "reads", Unit: "req", Help: "DRAM reads", Value: d.stats.Reads},
		{Name: "writes", Unit: "req", Help: "DRAM writes", Value: d.stats.Writes},
		{Name: "row_hits", Unit: "hit", Help: "row-buffer hits", Value: d.stats.RowHits},
		{Name: "row_misses", Unit: "miss", Help: "row-buffer misses", Value: d.stats.RowMisses},
	}
}

// Access implements memsys.Port. Bank is selected by low address bits
// above the row offset (so consecutive rows interleave across banks);
// the row index is the address divided by row size. The access kind does
// not affect DRAM timing.
func (d *DRAM) Access(pa memdefs.PAddr, _ memdefs.AccessKind, write bool) (memdefs.Cycles, memsys.Where) {
	if write {
		d.stats.Writes++
	} else {
		d.stats.Reads++
	}
	row := int64(uint64(pa) / uint64(d.cfg.RowBytes))
	bank := int(row) % d.numBanks
	globalRow := row / int64(d.numBanks)
	if d.openRow[bank] == globalRow {
		d.stats.RowHits++
		return d.cfg.RowHit, memsys.WhereMem
	}
	d.stats.RowMisses++
	d.openRow[bank] = globalRow
	return d.cfg.RowMiss, memsys.WhereMem
}

var (
	_ memsys.Port   = (*DRAM)(nil)
	_ memsys.Device = (*DRAM)(nil)
)
