package workloads

import "babelfish/internal/sim"

// RequestGate wraps a workload generator with an open-loop admission
// valve: it forwards the inner stream unchanged but stops at a request
// boundary once the cumulative emitted-request count reaches the
// admitted target. The fleet raises the target as the load generator
// admits arrivals, so a container executes exactly the requests offered
// to it — no more — and a starved gate parks its task (sim.Starver)
// instead of finishing it.
//
// The gate preserves the scheduler's generator contracts: it is a
// BatchGenerator, it reports the inner generator's KernelMutator
// marker, and when the inner generator mutates kernel state the gate
// refills from it at most once per NextBatch call. The inner generator
// writes straight into the caller's buffer; only the steps it produced
// beyond the target are carried here and emitted, in order, once the
// target rises.
type RequestGate struct {
	inner   sim.Generator
	bg      sim.BatchGenerator
	mutates bool

	carry []sim.Step
	pos   int // next carried step to emit

	target    uint64 // requests admitted so far (cumulative)
	emitted   uint64 // requests fully emitted so far (cumulative)
	innerDone bool
}

// NewRequestGate wraps inner. The gate starts fully starved (target 0).
func NewRequestGate(inner sim.Generator) *RequestGate {
	g := &RequestGate{inner: inner}
	g.bg, _ = inner.(sim.BatchGenerator)
	if km, ok := inner.(sim.KernelMutator); ok {
		g.mutates = km.MutatesKernel()
	}
	return g
}

// SetTarget raises the cumulative admitted-request target. Lowering is
// ignored: admissions are never revoked.
func (g *RequestGate) SetTarget(n uint64) {
	if n > g.target {
		g.target = n
	}
}

// Target returns the cumulative admitted-request target.
func (g *RequestGate) Target() uint64 { return g.target }

// Emitted returns how many whole requests the gate has emitted.
func (g *RequestGate) Emitted() uint64 { return g.emitted }

// Starved reports that the gate is parked: the admitted target is met
// and the inner stream has not ended. (sim.Starver)
func (g *RequestGate) Starved() bool {
	return !g.innerDone && g.emitted >= g.target
}

// MutatesKernel forwards the inner generator's marker. (sim.KernelMutator)
func (g *RequestGate) MutatesKernel() bool { return g.mutates }

// NextBatch fills out with admitted steps. Zero means either starved
// (Starved() true — the scheduler parks the task) or inner stream
// complete (the task finishes). (sim.BatchGenerator)
func (g *RequestGate) NextBatch(out []sim.Step) int {
	if g.innerDone {
		return 0
	}
	filled := 0
	for filled < len(out) && g.emitted < g.target && g.pos < len(g.carry) {
		out[filled] = g.carry[g.pos]
		g.pos++
		g.count(out[filled])
		filled++
	}
	if g.pos < len(g.carry) || filled == len(out) || g.emitted >= g.target {
		return filled
	}
	g.carry, g.pos = g.carry[:0], 0
	// Identity contract: a kernel-mutating inner generator builds at
	// most once per scheduler call into the gate, so it is pulled once.
	for filled < len(out) && g.emitted < g.target {
		end := filled + g.pull(out[filled:])
		if end == filled {
			g.innerDone = true
			break
		}
		for filled < end && g.emitted < g.target {
			g.count(out[filled])
			filled++
		}
		g.carry = append(g.carry, out[filled:end]...)
		if g.mutates {
			break
		}
	}
	return filled
}

// count records a request that the emitted step s ends.
func (g *RequestGate) count(s sim.Step) {
	if s.Req == sim.ReqEnd {
		g.emitted++
	}
}

// Next emits one admitted step. (sim.Generator)
func (g *RequestGate) Next(s *sim.Step) bool {
	var one [1]sim.Step
	if g.NextBatch(one[:]) == 0 {
		return false
	}
	*s = one[0]
	return true
}

// pull asks the inner generator for the next slice of its stream.
func (g *RequestGate) pull(buf []sim.Step) int {
	if g.bg != nil {
		return g.bg.NextBatch(buf)
	}
	if g.inner.Next(&buf[0]) {
		return 1
	}
	return 0
}
