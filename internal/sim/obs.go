package sim

import (
	"fmt"

	"babelfish/internal/obs"
)

// EnableObs attaches a span recorder to the machine. node labels the
// machine's spans with its fleet node ID (-1 for a standalone bfsim
// machine). The recorder must be owned by this machine alone — span IDs
// are a per-recorder sequence, so sharing one across machines would make
// IDs depend on scheduling order.
//
// With a recorder attached the machine records one KQuantum span per
// scheduling quantum, a KFault child for every faulting translation and
// a KEvent child for every OOM kill, all parented (through the quantum
// span) to whatever the recorder's default parent is — the fleet
// installs the node's current epoch span there. Detached (nil), every
// seam is a single nil check and the scheduler runs exactly as before.
func (m *Machine) EnableObs(rec *obs.Recorder, node int) {
	m.obsRec = rec
	m.obsNode = node
}

// ObsRecorder returns the attached span recorder (nil when off).
func (m *Machine) ObsRecorder() *obs.Recorder { return m.obsRec }

// LastOOMSpan returns the span of the most recent OOM kill (0 if none);
// the fleet layer parents its re-queue bookkeeping spans to it.
func (m *Machine) LastOOMSpan() obs.SpanID { return m.lastOOMSpan }

// flush hands the core's buffered fault and OOM-kill spans to the
// recorder, which mints their IDs in buffer order. The engine flushes
// cores in core-ID order, so the IDs do not depend on how segments were
// scheduled.
func (eng *shardEngine) flush(sc *shardCore) {
	for _, s := range sc.spans {
		id := eng.m.obsRec.Record(s)
		if s.Kind == obs.KEvent { // the machine's only event: an OOM kill
			eng.m.lastOOMSpan = id
		}
	}
	sc.spans = sc.spans[:0]
}

// recordQuantum closes out the core's quantum span: the ID was pre-minted
// at quantum start so fault/OOM children buffered during the quantum
// could already parent to it.
func (m *Machine) recordQuantum(sc *shardCore) {
	c := sc.c
	detail := ""
	if sib := sc.th[1]; sib != nil {
		detail = fmt.Sprintf("smt sibling pid %d", sib.Proc.PID)
	}
	m.obsRec.Record(obs.Span{
		ID: sc.span, Parent: m.obsRec.Parent(), Kind: obs.KQuantum,
		Name: "quantum", Node: m.obsNode, Core: c.ID, Task: -1, PID: int(sc.th[0].Proc.PID),
		Start: uint64(sc.start), Dur: uint64(c.Cycles - sc.start), Detail: detail,
	})
}

// ObsStream assembles the machine's export stream: its recorded spans,
// in simulated core cycles.
func (m *Machine) ObsStream(name string) obs.Stream {
	st := obs.Stream{Name: name}
	if m.obsRec != nil {
		st.Spans = m.obsRec.Spans()
	}
	return st
}
