package sim

import (
	"fmt"

	"babelfish/internal/kernel"
	"babelfish/internal/memdefs"
	"babelfish/internal/memsys"
	"babelfish/internal/mmu"
	"babelfish/internal/obs"
	"babelfish/internal/physmem"
	"babelfish/internal/telemetry"
	"babelfish/internal/trace"
)

// Histogram names in the machine's registry.
const (
	// HistXlatLatency is the translation latency of every memory access
	// (TLB lookups, ASLR transform, walk and fault time included).
	HistXlatLatency = "xlat.latency"
	// HistFaultCost is the kernel cycles spent on fault handling per
	// faulting translation (one observation per access that faulted,
	// covering all its retries).
	HistFaultCost = "fault.cost"
)

// registerMetrics builds the machine's telemetry registry: every stat
// producer is exposed through a pull probe that reads the producer's own
// counters on demand, so the hot paths pay nothing until a snapshot or
// sample is taken. Memory-system devices self-register through the
// memsys layer (each device announces its own stats; per-core instances
// are summed under one prefix), so adding a device adds its metrics;
// only machine-level, kernel and derived metrics are registered by hand.
func (m *Machine) registerMetrics() {
	reg := telemetry.NewRegistry()
	m.Registry = reg

	kstat := func(f func(kernel.Stats) uint64) func() uint64 {
		return func() uint64 { return f(m.Kernel.Stats()) }
	}

	// Machine scheduler.
	reg.Counter("sim.instrs", "instr", "instructions executed across all cores", func() uint64 {
		var t uint64
		for _, c := range m.Cores {
			t += c.Instrs
		}
		return t
	})
	reg.Gauge("sim.cycles", "cyc", "leading core clock", func() float64 {
		var mx memdefs.Cycles
		for _, c := range m.Cores {
			if c.Cycles > mx {
				mx = c.Cycles
			}
		}
		return float64(mx)
	})
	reg.Counter("sim.oom_kills", "task", "tasks terminated by the OOM killer", func() uint64 { return m.oomKills })
	reg.Counter("sim.kernel_bugs", "bug", "kernel/physmem invariant panics (process-wide)", func() uint64 {
		return kernel.BugCount() + physmem.BugPanics()
	})

	// Memory-system devices: each group of same-shaped devices registers
	// the stats the devices themselves announce, summed across cores.
	for _, g := range m.devGroups {
		memsys.RegisterSummed(reg, g.prefix, g.devs...)
	}

	// Memory-system fault injection (lifetime count across all seams; the
	// per-seam split lives in the mmu.inj_* device stats).
	reg.Counter("meminj.injected", "fault", "memory-system faults injected (TLB/PWC/cache/DRAM)", func() uint64 {
		return m.MemInjected()
	})

	// Kernel.
	reg.Counter("kernel.forks", "fork", "forks", kstat(func(s kernel.Stats) uint64 { return s.Forks }))
	reg.Counter("kernel.fork_copied_ptes", "pte", "pte_t copied at fork", kstat(func(s kernel.Stats) uint64 { return s.ForkCopiedPTEs }))
	reg.Counter("kernel.fork_linked_tables", "table", "shared tables linked at fork", kstat(func(s kernel.Stats) uint64 { return s.ForkLinkedTables }))
	reg.Counter("kernel.minor_faults", "fault", "minor faults", kstat(func(s kernel.Stats) uint64 { return s.MinorFaults }))
	reg.Counter("kernel.major_faults", "fault", "major faults", kstat(func(s kernel.Stats) uint64 { return s.MajorFaults }))
	reg.Counter("kernel.zero_fill_faults", "fault", "zero-fill faults", kstat(func(s kernel.Stats) uint64 { return s.ZeroFillFaults }))
	reg.Counter("kernel.cow_faults", "fault", "copy-on-write faults", kstat(func(s kernel.Stats) uint64 { return s.CoWFaults }))
	reg.Counter("kernel.link_faults", "fault", "faults resolved by linking a shared table", kstat(func(s kernel.Stats) uint64 { return s.LinkFaults }))
	reg.Counter("kernel.shared_installs", "pte", "entries installed into group-shared tables", kstat(func(s kernel.Stats) uint64 { return s.SharedInstalls }))
	reg.Counter("kernel.private_installs", "pte", "entries installed into private tables", kstat(func(s kernel.Stats) uint64 { return s.PrivateInstalls }))
	reg.Counter("kernel.pte_page_copies", "copy", "BabelFish private PTE-page copies", kstat(func(s kernel.Stats) uint64 { return s.PTEPageCopies }))
	reg.Counter("kernel.mask_pages", "page", "MaskPages allocated", kstat(func(s kernel.Stats) uint64 { return s.MaskPages }))
	reg.Counter("kernel.mask_overflows", "event", "PC-bitmask overflows (33rd writer)", kstat(func(s kernel.Stats) uint64 { return s.MaskOverflows }))
	reg.Counter("kernel.shootdowns", "event", "TLB shootdown rounds", kstat(func(s kernel.Stats) uint64 { return s.Shootdowns }))
	reg.Counter("kernel.reclaimed_pages", "page", "page-cache frames evicted under pressure", kstat(func(s kernel.Stats) uint64 { return s.Reclaimed }))
	reg.Counter("kernel.oom_events", "event", "allocation failures that survived reclaim", kstat(func(s kernel.Stats) uint64 { return s.OOMEvents }))
	reg.Counter("kernel.fault_cycles", "cyc", "cycles charged to kernel fault handling", kstat(func(s kernel.Stats) uint64 { return uint64(s.FaultCycles) }))

	// Physical memory.
	reg.Counter("phys.injected_faults", "fault", "allocations failed by the fault injector", func() uint64 { return m.Mem.InjectedFaults() })
	reg.Gauge("phys.frames_free", "frame", "free 4KB frames", func() float64 { return float64(m.Mem.FreeFrames()) })
	reg.Gauge("phys.frames_allocated", "frame", "allocated 4KB frames", func() float64 { return float64(m.Mem.Allocated()) })
	reg.Gauge("phys.frames_peak", "frame", "peak allocated 4KB frames", func() float64 { return float64(m.Mem.PeakAllocated()) })

	// Derived translation gauges (the paper's headline axes).
	reg.Gauge("xlat.mpki_data", "mpki", "L2 TLB data misses per kilo-instruction", func() float64 { return m.aggregateCached().MPKIData() })
	reg.Gauge("xlat.mpki_instr", "mpki", "L2 TLB instruction misses per kilo-instruction", func() float64 { return m.aggregateCached().MPKIInstr() })
	reg.Gauge("xlat.shared_hit_frac_data", "frac", "fraction of L2 data hits on shared entries", func() float64 { return m.aggregateCached().SharedHitFracD() })
	reg.Gauge("xlat.shared_hit_frac_instr", "frac", "fraction of L2 instruction hits on shared entries", func() float64 { return m.aggregateCached().SharedHitFracI() })

	m.histXlat = reg.Histogram(HistXlatLatency, "cyc", "translation latency per memory access")
	m.histFault = reg.Histogram(HistFaultCost, "cyc", "kernel fault cycles per faulting access")
}

// EnableTelemetry switches on histogram collection and, when sampleEvery
// is non-zero, cycle-driven time-series sampling of the registry every
// sampleEvery simulated cycles. Returns the machine's registry.
func (m *Machine) EnableTelemetry(sampleEvery uint64) *telemetry.Registry {
	m.telemetryOn = true
	if sampleEvery > 0 {
		m.sampler = telemetry.NewSampler(m.Registry, sampleEvery)
	}
	return m.Registry
}

// TelemetryEnabled reports whether histogram/sampling collection is on.
func (m *Machine) TelemetryEnabled() bool { return m.telemetryOn }

// Sampler returns the cycle-driven sampler (nil when sampling is off).
func (m *Machine) Sampler() *telemetry.Sampler { return m.sampler }

// XlatHist returns the translation-latency histogram.
func (m *Machine) XlatHist() *telemetry.Hist { return m.histXlat }

// FaultHist returns the fault-cost histogram.
func (m *Machine) FaultHist() *telemetry.Hist { return m.histFault }

// TelemetryReport dumps the machine's registry, histograms and time
// series as one architecture's section of a run report.
func (m *Machine) TelemetryReport(label string) telemetry.ArchReport {
	a := telemetry.ArchReport{Arch: label, Metrics: m.Registry.Snapshot(label).Values}
	for _, h := range m.Registry.Hists() {
		a.Histograms = append(a.Histograms, h.Dump())
	}
	if m.sampler != nil {
		a.Series = m.sampler.Series()
	}
	return a
}

// observeTranslation is the single instrumentation seam for a completed
// translation: the trace ring and the telemetry histograms both hang off
// it, so they observe exactly the same events. Callers gate it behind
// the Tracer/telemetryOn nil checks to keep the disabled path free.
func (m *Machine) observeTranslation(c *Core, t *Task, step *Step, tc memdefs.Cycles, info *mmu.Info) {
	if m.telemetryOn {
		m.histXlat.ObserveCycles(tc)
		if info.Faults > 0 {
			m.histFault.ObserveCycles(info.FaultCycles)
		}
	}
	if m.obsRec != nil && info.Faults > 0 {
		m.obsRec.Record(obs.Span{
			Parent: m.obsSpan, Kind: obs.KFault, Name: "fault",
			Node: m.obsNode, Core: c.ID, Task: -1, PID: int(t.Proc.PID),
			Start: uint64(c.Cycles), Dur: uint64(info.FaultCycles),
			Detail: fmt.Sprintf("va=%#x faults=%d", uint64(step.VA), info.Faults),
		})
	}
	if m.Tracer == nil {
		return
	}
	lvl := trace.LevelWalk
	switch info.Level {
	case "L1":
		lvl = trace.LevelL1
	case "L2":
		lvl = trace.LevelL2
	}
	m.Tracer.Record(trace.Event{
		Kind: trace.EvAccess, Core: uint8(c.ID), PID: t.Proc.PID,
		VA: step.VA, Write: step.Write, Instr: step.Kind == memdefs.AccessInstr,
		Level: lvl, Cycles: tc, At: c.Cycles,
	})
	if info.Faults > 0 {
		m.Tracer.Record(trace.Event{
			Kind: trace.EvFault, Core: uint8(c.ID), PID: t.Proc.PID,
			VA: step.VA, Cycles: info.FaultCycles, At: c.Cycles,
		})
	}
}
