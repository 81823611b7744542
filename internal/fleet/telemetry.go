package fleet

import "babelfish/internal/telemetry"

// eventMetrics names the fleet.* counter that reads each event kind's
// tally, with its help text.
var eventMetrics = [numEventKinds]struct{ name, help string }{
	EvCrash:     {"crashes", "node crash faults injected"},
	EvRestart:   {"restarts", "crashed nodes brought back up"},
	EvPartition: {"partitions", "network partitions injected"},
	EvHeal:      {"heals", "partitions healed"},
	EvSuspect:   {"suspects", "nodes suspected after a missed heartbeat"},
	EvCondemn:   {"condemned", "nodes condemned by the suspicion timeout"},
	EvRejoin:    {"rejoins", "condemned nodes readmitted after fencing"},
	EvQueued:    {"queued", "containers sent to the re-placement queue"},
	EvPlaced:    {"placements", "successful container placements"},
	EvPlaceFail: {"place_fails", "placement attempts refused by every node"},
	EvShed:      {"sheds", "containers shed from overloaded nodes"},
	EvFence:     {"fences", "stale containers killed at node rejoin"},
	EvOOMKill:   {"oom_escalations", "node OOM kills absorbed as escalations"},
	EvDegraded:  {"degradations", "admission-control degradation windows opened"},
	EvLost:      {"lost", "containers lost to retry- or requeue-budget exhaustion"},
	EvComplete:  {"completions", "containers whose workload ran to completion"},
}

// registerMetrics builds the fleet registry: one counter per event kind
// plus the heartbeat-miss and request counters, gauges over the live
// control-plane state, and the log2 histograms the report quotes p50/p99
// from. Pull-based like the machine registry — probes read the cluster's
// own tallies on demand, so the control loop pays nothing for
// telemetry's existence.
func (c *Cluster) registerMetrics() {
	r := telemetry.NewRegistry()
	c.reg = r
	for k := range numEventKinds {
		r.Counter("fleet."+eventMetrics[k].name, "events", eventMetrics[k].help,
			func() uint64 { return c.tally[k] })
		if k == EvRejoin {
			// Not an event: a missed heartbeat only feeds the detector.
			r.Counter("fleet.heartbeat_misses", "events", "heartbeats that failed to arrive",
				func() uint64 { return c.ctr.heartbeatMisses })
		}
	}

	req := func(name, help string, p *uint64) {
		r.Counter("fleet."+name, "requests", help, func() uint64 { return *p })
	}
	req("req_offered", "requests offered by the open-loop load source", &c.ctr.reqOffered)
	req("req_admitted", "offered requests admitted into container queues", &c.ctr.reqAdmitted)
	req("req_served", "admitted requests served by container tasks", &c.ctr.reqServed)
	req("req_dropped", "offered requests dropped (queue full, container lost or completed)", &c.ctr.reqDropped)

	r.Gauge("fleet.queue_depth", "requests", "requests waiting in container pending queues",
		func() float64 { return float64(c.queueDepth()) })
	r.Gauge("fleet.nodes_up", "nodes", "nodes currently up",
		func() float64 { return float64(c.upCount()) })
	r.Gauge("fleet.containers_running", "containers", "containers with a live task",
		func() float64 { return float64(c.runningCount()) })
	r.Gauge("fleet.containers_pending", "containers", "containers waiting in the queue",
		func() float64 { return float64(c.pendingCount()) })
	r.Gauge("fleet.density", "containers/node", "mean running containers per up node over the run",
		func() float64 { return c.Density() })

	c.histReplace = r.Histogram("fleet.replace_delay", "epochs",
		"queue-to-placed delay of successful placements")
	c.histDowntime = r.Histogram("fleet.node_downtime", "epochs",
		"crash-to-restart downtime per node restart")
	c.histReqLat = r.Histogram("fleet.req_latency", "cycles",
		"request latency across all containers (surviving machines)")
	c.histXlat = r.Histogram("fleet.xlat_latency", "cycles",
		"translation latency merged from per-node machines (NodeTelemetry)")
	c.histQDelay = r.Histogram("fleet.queue_delay", "epochs",
		"admit-to-serve queueing delay of served requests (open-loop load)")
}

// Density is the mean number of running containers per up node,
// averaged over completed epochs — the fleet-level consolidation metric
// BabelFish's page and PTE sharing moves.
func (c *Cluster) Density() float64 {
	if c.sumUp == 0 {
		return 0
	}
	return float64(c.sumRunning) / float64(c.sumUp)
}
