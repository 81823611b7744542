package fleet

import (
	"bytes"
	"fmt"

	"babelfish/internal/memdefs"
	"babelfish/internal/obs"
	"babelfish/internal/sim"
	"babelfish/internal/telemetry"
)

// Observability threading for the fleet: a control-plane span recorder
// (epoch timebase, scope obs.ControlScope) plus one machine recorder per
// node (cycle timebase, scope = node ID). Control-plane spans mirror the
// event log one-for-one and carry causal parents — an injected crash is
// the root of the suspect → condemn → queued → place-fail → lost chain,
// a placement parents the later OOM-kill/shed of the same container —
// so Ancestry on a violation span reaches the fault that caused it.
// Everything here is deterministic: recorders are only touched from the
// sequential control phase or from the one goroutine stepping the
// owning node, so exports are byte-identical at any Jobs width.

// maxFlightBundles caps post-mortem bundles per run: a pathological
// seed that trips a trigger every epoch must not bury the output
// directory. The cap is generous — real investigations want the first
// occurrence, not the five-hundredth.
const maxFlightBundles = 8

// obsEnabled reports whether span recording is on (arming the flight
// recorder implies it — a bundle without spans would be empty).
func (cfg Config) obsEnabled() bool { return cfg.Obs.Enabled || cfg.Obs.FlightDir != "" }

// initObs builds the cluster's recorders; called from New before the
// node loop so buildMachine can attach per-node recorders.
func (c *Cluster) initObs() {
	if !c.cfg.obsEnabled() {
		return
	}
	c.obsOn = true
	c.ctlRec = obs.NewRecorder(c.cfg.Seed, obs.ControlScope, c.cfg.Obs.RingDepth())
	c.nodeCause = make([]obs.SpanID, c.cfg.Nodes)
	c.ctCause = make(map[int]obs.SpanID)
}

// EnableSeries attaches an epoch-driven sampler to the fleet registry:
// one sample of every fleet metric each `every` epochs. Returns the
// sampler so the CLI can install a streaming sink (-series-out).
func (c *Cluster) EnableSeries(every uint64) *telemetry.Sampler {
	c.sampler = telemetry.NewSampler(c.reg, every)
	return c.sampler
}

// Sampler returns the epoch-driven sampler (nil when series are off).
func (c *Cluster) Sampler() *telemetry.Sampler { return c.sampler }

// machineCycles is the node machine's leading core clock.
func machineCycles(m *sim.Machine) uint64 {
	var mx memdefs.Cycles
	for _, core := range m.Cores {
		if core.Cycles > mx {
			mx = core.Cycles
		}
	}
	return uint64(mx)
}

// beginEpoch opens the control plane's epoch span (epoch timebase).
func (c *Cluster) beginEpoch() obs.SpanID {
	if c.ctlRec == nil {
		return 0
	}
	return c.ctlRec.Record(obs.Span{
		Kind: obs.KEpoch, Name: fmt.Sprintf("epoch %d", c.epoch),
		Node: -1, Core: -1, Task: -1, PID: -1,
		Start: uint64(c.epoch), Dur: 1,
	})
}

// beginEpochSpan pre-mints the node's epoch span and installs it as the
// machine recorder's default parent, so quantum spans recorded during
// the (possibly parallel) data-plane phase already parent correctly.
func (n *node) beginEpochSpan() {
	if n.rec == nil {
		return
	}
	n.epochSpan = n.rec.NewID()
	n.epochStart = machineCycles(n.m)
	n.rec.SetParent(n.epochSpan)
}

// endEpochSpan closes the node's epoch span after the data-plane phase
// (machine-cycle timebase, parented to the control plane's epoch span).
func (n *node) endEpochSpan(epoch int, parent obs.SpanID) {
	if n.rec == nil || n.epochSpan == 0 {
		return
	}
	end := machineCycles(n.m)
	n.rec.Record(obs.Span{
		ID: n.epochSpan, Parent: parent, Kind: obs.KEpoch,
		Name: fmt.Sprintf("epoch %d", epoch), Node: n.id, Core: -1, Task: -1, PID: -1,
		Start: n.epochStart, Dur: end - n.epochStart,
	})
	n.epochSpan = 0
}

// recordEventSpan mirrors one fleet Event as a control-plane span with
// a causal parent. cause, when non-zero, is an explicit parent from the
// call site (the condemn span for its re-queues, the machine's OOM-kill
// span for the escalation event); otherwise the parent defaults to the
// subject's running cause chain: nodeCause for node-lifecycle events,
// ctCause for container-lifecycle ones.
func (c *Cluster) recordEventSpan(kind EventKind, nodeID, ctID int, detail string, cause obs.SpanID) obs.SpanID {
	parent := cause
	spanKind := obs.KEvent
	switch kind {
	case EvCrash, EvPartition:
		parent = 0 // root cause: an injected fault
		if detail == "" {
			detail = "injected fault"
		}
	case EvSuspect, EvCondemn, EvRestart, EvHeal, EvRejoin, EvDegraded:
		if parent == 0 && nodeID >= 0 {
			parent = c.nodeCause[nodeID]
		}
	case EvOOMKill, EvShed, EvFence:
		if parent == 0 {
			if p := c.ctCause[ctID]; p != 0 {
				parent = p
			} else if nodeID >= 0 {
				parent = c.nodeCause[nodeID]
			}
		}
	case EvQueued, EvPlaceFail, EvPlaced, EvLost, EvComplete:
		if parent == 0 {
			parent = c.ctCause[ctID]
		}
		if kind == EvLost {
			spanKind = obs.KViolation
		}
	}
	if kind == EvPlaced {
		// The whole-life request span (queued → placed, epoch timebase)
		// sits between the queue-entry cause and the placement itself.
		ct := c.containers[ctID]
		parent = c.ctlRec.Record(obs.Span{
			Parent: parent, Kind: obs.KRequest, Name: fmt.Sprintf("container %d", ctID),
			Node: nodeID, Core: -1, Task: ctID, PID: -1,
			Start: uint64(ct.QueuedAt), Dur: uint64(c.epoch - ct.QueuedAt),
		})
		spanKind = obs.KPlace
	}
	id := c.ctlRec.Record(obs.Span{
		Parent: parent, Kind: spanKind, Name: kind.String(),
		Node: nodeID, Core: -1, Task: ctID, PID: -1,
		Start: uint64(c.epoch), Detail: detail,
	})
	switch kind {
	case EvCrash, EvPartition, EvSuspect, EvCondemn:
		c.nodeCause[nodeID] = id
	case EvRestart, EvRejoin:
		// Recovery ends the node's cause chain.
		c.nodeCause[nodeID] = 0
	case EvOOMKill, EvShed, EvFence, EvQueued, EvPlaceFail, EvPlaced, EvComplete:
		c.ctCause[ctID] = id
	}
	switch kind {
	case EvCondemn, EvOOMKill, EvLost:
		if c.cfg.Obs.FlightDir != "" && c.flightTrigger == "" {
			c.flightTrigger = kind.String()
		}
	}
	return id
}

// ObsStreams assembles the export streams in deterministic order: the
// control plane first (spans in the epoch timebase), then every node
// (machine spans in core cycles; a down node exports its recorder's
// retained spans).
func (c *Cluster) ObsStreams() []obs.Stream {
	if !c.obsOn {
		return nil
	}
	streams := []obs.Stream{{Name: "control", Spans: c.ctlRec.Spans()}}
	for _, n := range c.nodes {
		st := obs.Stream{Name: fmt.Sprintf("node%d", n.id)}
		if n.rec != nil {
			st.Spans = n.rec.Spans()
		}
		streams = append(streams, st)
	}
	return streams
}

// flightDump writes one post-mortem bundle: the retained spans of every
// recorder, a Prometheus snapshot of the fleet registry and the audit
// report taken at the trigger. Bounded by maxFlightBundles per run; the
// bundle label is deterministic (epoch + trigger), so re-running the
// seed regenerates identical bundles.
func (c *Cluster) flightDump(prefix, trigger string) error {
	if c.flightBundles >= maxFlightBundles {
		return nil
	}
	c.flightBundles++
	audit := c.Audit()
	var prom bytes.Buffer
	if err := telemetry.WriteProm(&prom, c.reg); err != nil {
		return err
	}
	_, err := obs.WriteBundle(c.cfg.Obs.FlightDir, obs.Bundle{
		Label:       fmt.Sprintf("%s%03d-%s", prefix, c.epoch, trigger),
		Tool:        "fleet",
		Trigger:     trigger,
		Streams:     c.ObsStreams(),
		MetricsProm: prom.Bytes(),
		Audit:       audit.String(),
	})
	return err
}

// FlightBundles reports how many post-mortem bundles this run wrote.
func (c *Cluster) FlightBundles() int { return c.flightBundles }

// finalFlight audits once more after Finish and dumps a closing bundle
// if the run ends in violation (a lost container discovered earlier
// stays lost, so the final audit pins the end-state evidence).
func (c *Cluster) finalFlight() error {
	if c.cfg.Obs.FlightDir == "" {
		return nil
	}
	if a := c.Audit(); !a.OK() {
		return c.flightDump("final", "audit-violation")
	}
	return nil
}
