package main

import (
	"sync"
	"sync/atomic"
	"time"

	"babelfish/internal/kernel"
	"babelfish/internal/memdefs"
	"babelfish/internal/memsys"
	"babelfish/internal/sim"
	"babelfish/internal/workloads"
)

// The traced run's spans. Every one is taken here, around a public call
// or by interposing on a public seam (Core.Mem, MMU.SetPort, L3.SetBelow,
// AppSpec.NewGen); the simulator itself carries no instrumentation for
// the benchmark. A nil *tracer is the untraced run: every method is a
// no-op and nothing is interposed.

// seamStat accumulates one interposed seam's calls, work units and host
// time. Fleet nodes step on parallel workers, so the fields are atomic.
type seamStat struct {
	units atomic.Uint64
	ns    atomic.Int64
}

func (s *seamStat) add(since time.Time, units int) {
	s.ns.Add(int64(time.Since(since)))
	s.units.Add(uint64(units))
}

// nsPerUnit is the mean host time per unit of work, in nanoseconds.
func (s *seamStat) nsPerUnit() float64 {
	if u := s.units.Load(); u > 0 {
		return float64(s.ns.Load()) / float64(u)
	}
	return 0
}

// tracer holds the traced run's spans and seam totals.
type tracer struct {
	gen  seamStat // generator Next/NextBatch: units are steps
	data seamStat // Core.Mem accesses
	walk seamStat // page-walk memory references (MMU port)
	dram seamStat // L3 misses served by DRAM

	mu      sync.Mutex
	samples map[string][]float64 // span name -> durations
}

func newTracer() *tracer { return &tracer{samples: map[string][]float64{}} }

// span records one duration under name, in the given unit.
func (tr *tracer) span(name string, since time.Time, unit time.Duration) {
	if tr == nil {
		return
	}
	tr.record(name, float64(time.Since(since))/float64(unit))
}

// record records one measured duration under name.
func (tr *tracer) record(name string, d float64) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.samples[name] = append(tr.samples[name], d)
	tr.mu.Unlock()
}

// spans returns a copy of the durations recorded under name.
func (tr *tracer) spans(name string) []float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]float64(nil), tr.samples[name]...)
}

// instrumentMachine interposes the memory-system timers on a machine:
// every core's data port, every walker's port, and the shared L3's DRAM
// backend. Only classic (unsharded) machines have a shared L3.
func (tr *tracer) instrumentMachine(m *sim.Machine) {
	if tr == nil {
		return
	}
	for _, c := range m.Cores {
		c.Mem = &timedPort{inner: c.Mem, st: &tr.data}
		c.MMU.SetPort(&timedPort{inner: c.MMU.Port(), st: &tr.walk})
	}
	if m.L3 != nil {
		m.L3.SetBelow(&timedPort{inner: m.L3.Below(), st: &tr.dram})
	}
}

// timedPort times every access through a memory port.
type timedPort struct {
	inner memsys.Port
	st    *seamStat
}

func (p *timedPort) Access(pa memdefs.PAddr, kind memdefs.AccessKind, write bool) (memdefs.Cycles, memsys.Where) {
	t := time.Now()
	c, w := p.inner.Access(pa, kind, write)
	p.st.add(t, 1)
	return c, w
}

// wrapSpec returns a copy of spec whose generators are built under a
// span and then wrapped to time step generation.
func (tr *tracer) wrapSpec(spec *workloads.AppSpec) *workloads.AppSpec {
	if tr == nil {
		return spec
	}
	s := *spec
	build := spec.NewGen
	s.NewGen = func(d *workloads.Deployment, p *kernel.Process, idx int, seed uint64) sim.Generator {
		t := time.Now()
		g := build(d, p, idx, seed)
		tr.span("workloads.newgen_ms", t, time.Millisecond)
		return wrapGen(g, &tr.gen)
	}
	return &s
}

// wrapGen wraps a generator in a timer that keeps every optional
// interface the scheduler and the fleet's request gates look for:
// BatchGenerator exactly when the inner generator batches (a batching
// wrapper around a step-at-a-time generator would move its kernel
// mutations in machine time), and KernelMutator and Starver answers equal
// to the inner generator's, false where it has none — which the
// scheduler treats the same as not implementing them.
func wrapGen(g sim.Generator, st *seamStat) sim.Generator {
	base := timedGen{inner: g, st: st}
	base.mutator, _ = g.(sim.KernelMutator)
	base.starver, _ = g.(sim.Starver)
	if bg, ok := g.(sim.BatchGenerator); ok {
		return &timedBatchGen{timedGen: base, batch: bg}
	}
	return &base
}

type timedGen struct {
	inner   sim.Generator
	mutator sim.KernelMutator
	starver sim.Starver
	st      *seamStat
}

func (g *timedGen) Next(s *sim.Step) bool {
	t := time.Now()
	ok := g.inner.Next(s)
	n := 0
	if ok {
		n = 1
	}
	g.st.add(t, n)
	return ok
}

// MutatesKernel forwards the inner generator's marker (sim.KernelMutator).
func (g *timedGen) MutatesKernel() bool { return g.mutator != nil && g.mutator.MutatesKernel() }

// Starved forwards the inner generator's answer (sim.Starver).
func (g *timedGen) Starved() bool { return g.starver != nil && g.starver.Starved() }

type timedBatchGen struct {
	timedGen
	batch sim.BatchGenerator
}

func (g *timedBatchGen) NextBatch(buf []sim.Step) int {
	t := time.Now()
	n := g.batch.NextBatch(buf)
	g.st.add(t, n)
	return n
}
