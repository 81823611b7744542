// Package memsys is the unified device layer of the simulated memory
// system. Every component of the machine's Table-I stack — TLB groups,
// the page-walk cache, the cache levels, DRAM — implements the small
// Device interface, so the machine composes, resets and observes them
// uniformly instead of hand-wiring each one:
//
//   - telemetry: a device announces its counters as memsys.Stats and the
//     machine registers them (summed across per-core instances) with
//     RegisterSummed — adding a device automatically adds its metrics;
//   - reset: the warm-up/measurement boundary walks the device list;
//   - fault injection: the deterministic Injector and the FaultPort
//     wrapper thread seeded corruption through the same seam for every
//     device class (see inject.go), closing the ROADMAP item that the
//     frame-allocator injector stopped short of.
//
// Port is where a physical access goes: it carries its access kind
// (data, instruction fetch, page-walker reference) along with the
// address, and reports latency plus the level that served it. The cache hierarchy, individual cache levels, DRAM and any
// injection wrapper are all Ports, so hierarchy-restructuring experiments
// (cache-backed TLBs, coalesced variants) plug in without another
// cross-cutting rewrite.
package memsys

import (
	"fmt"

	"babelfish/internal/memdefs"
	"babelfish/internal/telemetry"
)

// Where identifies the memory-system level that ultimately served an
// access.
type Where int

const (
	WhereSelf Where = iota // hit in the structure queried (used internally)
	WhereL1
	WhereL2
	WhereL3
	WhereMem
)

func (w Where) String() string {
	switch w {
	case WhereL1:
		return "L1"
	case WhereL2:
		return "L2"
	case WhereL3:
		return "L3"
	case WhereMem:
		return "Mem"
	}
	return fmt.Sprintf("Where(%d)", int(w))
}

// Port is anything that can serve a physical memory access: a cache
// level, a whole hierarchy, DRAM, or a fault-injection wrapper around any
// of those. It reports the latency and the level that served the access.
type Port interface {
	Access(pa memdefs.PAddr, kind memdefs.AccessKind, write bool) (memdefs.Cycles, Where)
}

// Stat is one named device counter with its telemetry metadata. Name is
// the metric suffix under the device's registration prefix.
type Stat struct {
	Name  string
	Unit  string
	Help  string
	Value uint64
}

// Stats is a snapshot of a device's counters in a fixed, stable order
// (same device type → same shape, so instances can be summed by index).
type Stats []Stat

// Get returns the value of the named stat (0 if absent).
func (s Stats) Get(name string) uint64 {
	for i := range s {
		if s[i].Name == name {
			return s[i].Value
		}
	}
	return 0
}

// Device is one memory-system component as seen by the machine.
type Device interface {
	// Name identifies the device ("tlb.l2", "cache.l1d", "dram", ...).
	Name() string
	// DeviceStats snapshots the device's counters as named stats. The
	// shape (length, order, names) is fixed per device type.
	DeviceStats() Stats
	// ResetStats zeroes the counters (the warm-up/measurement boundary).
	ResetStats()
}

// RegisterSummed registers the stats of a group of same-shaped devices
// (e.g. one TLB group per core) under a single prefix, each metric
// reading the sum across all instances and named prefix+"."+stat.Name.
// The stat names, units and help strings come from the first device's
// snapshot. Probes snapshot the devices on demand, so their hot paths
// pay nothing until a registry read.
func RegisterSummed(reg *telemetry.Registry, prefix string, devs ...Device) {
	if len(devs) == 0 {
		return
	}
	proto := devs[0].DeviceStats()
	for i := range proto {
		st := proto[i]
		idx := i
		reg.Counter(prefix+"."+st.Name, st.Unit, st.Help, func() uint64 {
			var t uint64
			for _, d := range devs {
				if s := d.DeviceStats(); idx < len(s) {
					t += s[idx].Value
				}
			}
			return t
		})
	}
}
