package fleet

import "fmt"

// EventKind labels one auditable control-plane action. Every recovery
// decision the cluster takes — and every fault the injectors deal it —
// appends exactly one event, in the deterministic order of the control
// phase, so two runs with the same seed produce byte-identical logs.
type EventKind int

const (
	// EvCrash: the fault model killed a node; its machine (and every
	// container on it) is gone.
	EvCrash EventKind = iota
	// EvRestart: a crashed node came back with a fresh, empty machine.
	EvRestart
	// EvPartition: the fault model cut a node's network link; the node
	// keeps running but its heartbeats stop arriving.
	EvPartition
	// EvHeal: a partition ended; heartbeats resume next epoch.
	EvHeal
	// EvSuspect: the controller missed a heartbeat from a node.
	EvSuspect
	// EvCondemn: the suspicion timeout expired; the controller declared
	// the node dead and queued its containers for re-placement.
	EvCondemn
	// EvRejoin: a condemned node delivered a heartbeat again (restart or
	// heal) and was readmitted after fencing.
	EvRejoin
	// EvQueued: a container lost its home and entered the re-placement
	// queue.
	EvQueued
	// EvPlaced: a container was placed (or re-placed) on a node.
	EvPlaced
	// EvPlaceFail: no node admitted the container this attempt; the next
	// try is scheduled with capped exponential backoff.
	EvPlaceFail
	// EvShed: an overloaded node shed a container (admission-control
	// load shedding; the container re-enters the queue).
	EvShed
	// EvFence: a rejoining node killed a stale local container that the
	// controller had already re-placed elsewhere.
	EvFence
	// EvOOMKill: a node's own OOM killer terminated a container mid-run
	// (the escalation step past reclaim); the fleet re-queues it.
	EvOOMKill
	// EvDegraded: a node closed admissions after memory pressure or an
	// OOM escalation.
	EvDegraded
	// EvLost: a container exhausted its retry budget — an auditor
	// violation; the default budget is sized so this never fires.
	EvLost
	// EvComplete: a container's workload ran to completion — a terminal
	// state; the container leaves the scheduler's responsibility without
	// being requeued.
	EvComplete

	numEventKinds
)

var eventNames = [...]string{
	EvCrash:     "crash",
	EvRestart:   "restart",
	EvPartition: "partition",
	EvHeal:      "heal",
	EvSuspect:   "suspect",
	EvCondemn:   "condemn",
	EvRejoin:    "rejoin",
	EvQueued:    "queued",
	EvPlaced:    "placed",
	EvPlaceFail: "place-fail",
	EvShed:      "shed",
	EvFence:     "fence",
	EvOOMKill:   "oom-kill",
	EvDegraded:  "degraded",
	EvLost:      "lost",
	EvComplete:  "complete",
}

func (k EventKind) String() string {
	if int(k) < len(eventNames) {
		return eventNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one audit-log entry. Node and Container are -1 when the
// event has no such subject.
type Event struct {
	Epoch     int
	Kind      EventKind
	Node      int
	Container int
	Detail    string
}

func (e Event) String() string {
	s := fmt.Sprintf("epoch %3d %-10s", e.Epoch, e.Kind)
	if e.Node >= 0 {
		s += fmt.Sprintf(" node %d", e.Node)
	}
	if e.Container >= 0 {
		s += fmt.Sprintf(" container %d", e.Container)
	}
	if e.Detail != "" {
		s += " (" + e.Detail + ")"
	}
	return s
}
