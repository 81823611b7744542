// Package fleet lifts the single-machine simulator to a deterministic
// multi-node cluster: N sim.Machine nodes stepped in lockstep epochs on
// the internal/par worker pool, a control plane that places containers
// across nodes, and a fault model that makes the fleet survivable.
//
// The fault model reuses the memsys injector (pure in (config, seq)):
// each node owns a crash injector and a partition injector pulsed once
// per epoch, seed-mixed and phase-staggered by node ID so faults roll
// across the fleet instead of striking it in lockstep. Failure detection
// is heartbeat-driven — the controller never reads ground truth — with a
// configurable suspicion timeout; containers from condemned nodes are
// re-placed with capped exponential backoff under a retry budget; nodes
// that rejoin after condemnation fence their stale containers before
// readmission, so a container never runs in two places the controller
// considers live. Overloaded nodes degrade gracefully instead of dying:
// admission control closes, load is shed one container per epoch, and
// the node machine's own OOM killer (the PR 1 reclaim machinery's last
// step) is absorbed as an escalation event rather than a crash.
//
// Every recovery action appends one Event in deterministic control-phase
// order; Audit checks the fleet invariants (no double placement, every
// container reachable, per-node kernel/physmem/TLB books balanced), and
// the telemetry registry reports fleet-wide counters plus log2-histogram
// p50/p99 for re-placement delay, node downtime and request latency.
// Runs are replay-identical: same Config, same seed, any Jobs width —
// byte-identical Report and event log.
package fleet

import (
	"errors"
	"fmt"
	"math"

	"babelfish/internal/loadgen"
	"babelfish/internal/memsys"
	"babelfish/internal/obs"
	"babelfish/internal/par"
	"babelfish/internal/physmem"
	"babelfish/internal/sim"
	"babelfish/internal/telemetry"
	"babelfish/internal/workloads"
)

// Config sizes and arms a cluster.
type Config struct {
	// Nodes is the cluster size.
	Nodes int
	// Params builds each node's machine (cores, memory, architecture).
	Params sim.Params
	// Spec is the containerized application every placement runs.
	Spec *workloads.AppSpec
	// Scale sizes each container's dataset; Seed fixes all randomness.
	Scale float64
	Seed  uint64

	// Containers is how many containers the cluster must keep running.
	Containers int

	// Epochs is the number of control-loop rounds Run executes;
	// EpochInstr is the per-core instruction budget each live node's
	// machine advances per epoch. With Load set, EpochInstr is the
	// per-epoch capacity cap: admission gates starve each container's
	// task once its admitted requests drain, so a node only steps the
	// budget the admitted work actually demands.
	Epochs     int
	EpochInstr uint64

	// Load, when non-nil, switches the fleet to open-loop load: each
	// epoch the source's arrivals enter per-container bounded pending
	// queues, and placed containers drain exactly the admitted requests
	// through workloads.RequestGate valves. Arrivals are a pure function
	// of the epoch number — they never slow down when the fleet degrades
	// (that is the point of open-loop), so overload shows up as queueing
	// delay and drops instead of silently reduced offered load.
	Load loadgen.Source `json:"-"`
	// QueueCap bounds each container's pending-request queue; arrivals
	// beyond it are dropped (admission control). Required >= 1 when Load
	// is set.
	QueueCap int

	// RequeueBudget caps how many times one container may re-enter the
	// re-placement queue over its whole life. Attempts (below) resets per
	// queue episode for backoff purposes; this budget is what catches a
	// container ping-ponging through shed/condemn/OOM cycles forever.
	RequeueBudget int

	// SuspicionEpochs is the failure detector's timeout: a node whose
	// heartbeat has been missing for more than this many epochs is
	// condemned and its containers re-placed.
	SuspicionEpochs int

	// Crash and Partition arm the per-node fault injectors (the memsys
	// Nth/Prob/After/MaxFaults shape, pure in (config, seq); pulsed once
	// per epoch per node). Seeds are mixed and Nth phases staggered by
	// node ID inside New.
	Crash     memsys.InjectConfig
	Partition memsys.InjectConfig
	// RestartEpochs is how long a crashed node stays down;
	// PartitionEpochs is how long a partition lasts.
	RestartEpochs   int
	PartitionEpochs int

	// Re-placement policy: the first retry waits BackoffBase epochs,
	// doubling per failed attempt up to BackoffCap; a container that
	// fails RetryBudget attempts is declared lost (an audit violation).
	BackoffBase int
	BackoffCap  int
	RetryBudget int

	// Graceful degradation: a node admits new containers only while it
	// hosts fewer than MaxPerNode and its free-frame fraction is at
	// least MinFreeFrac; below ShedFrac it is degraded (admissions
	// closed for DegradeEpochs) and sheds one container per epoch.
	MaxPerNode    int
	MinFreeFrac   float64
	ShedFrac      float64
	DegradeEpochs int

	// NodeTelemetry enables per-node machine histograms (merged into
	// the fleet-wide translation-latency histogram at Finish).
	NodeTelemetry bool

	// Obs configures causal span tracing and the flight recorder (see
	// internal/obs and obs.go in this package). Arming Obs.FlightDir
	// implies span recording even when Obs.Enabled is false.
	Obs obs.Options

	// Jobs bounds the worker pool stepping node machines each epoch
	// (0 = GOMAXPROCS). Output is byte-identical at any width.
	Jobs int `json:"-"`
}

// DefaultConfig returns a survivable-fleet baseline around the given
// node machine and app.
func DefaultConfig(params sim.Params, spec *workloads.AppSpec) Config {
	return Config{
		Nodes:           8,
		Params:          params,
		Spec:            spec,
		Scale:           0.25,
		Seed:            42,
		Containers:      24,
		Epochs:          48,
		EpochInstr:      60_000,
		SuspicionEpochs: 2,
		RestartEpochs:   3,
		PartitionEpochs: 4,
		BackoffBase:     1,
		BackoffCap:      8,
		RetryBudget:     16,
		RequeueBudget:   64,
		QueueCap:        64,
		MaxPerNode:      8,
		MinFreeFrac:     0.04,
		ShedFrac:        0.02,
		DegradeEpochs:   2,
	}
}

// Validate reports the first configuration mistake (the CLI surfaces it
// as a usage error).
func (c Config) Validate() error {
	switch {
	case c.Nodes < 1:
		return errors.New("fleet: Nodes must be at least 1")
	case c.Spec == nil:
		return errors.New("fleet: Spec must be set")
	case c.Params.Cores < 1:
		return errors.New("fleet: Params.Cores must be at least 1")
	case !(c.Scale > 0 && c.Scale <= math.MaxFloat64):
		return errors.New("fleet: Scale must be a finite positive number")
	case c.Containers < 0:
		return errors.New("fleet: Containers must be non-negative")
	case c.Epochs < 1:
		return errors.New("fleet: Epochs must be at least 1")
	case c.EpochInstr < 1:
		return errors.New("fleet: EpochInstr must be at least 1")
	case c.SuspicionEpochs < 1:
		return errors.New("fleet: SuspicionEpochs must be at least 1")
	case c.RestartEpochs < 1:
		return errors.New("fleet: RestartEpochs must be at least 1")
	case c.PartitionEpochs < 1:
		return errors.New("fleet: PartitionEpochs must be at least 1")
	case c.BackoffBase < 1:
		return errors.New("fleet: BackoffBase must be at least 1")
	case c.BackoffCap < c.BackoffBase:
		return errors.New("fleet: BackoffCap must be >= BackoffBase")
	case c.RetryBudget < 1:
		return errors.New("fleet: RetryBudget must be at least 1")
	case c.RequeueBudget < 1:
		return errors.New("fleet: RequeueBudget must be at least 1")
	case c.Load != nil && c.QueueCap < 1:
		return errors.New("fleet: QueueCap must be at least 1 when Load is set")
	case c.MaxPerNode < 1:
		return errors.New("fleet: MaxPerNode must be at least 1")
	case c.MinFreeFrac < 0 || c.MinFreeFrac >= 1 || math.IsNaN(c.MinFreeFrac):
		return errors.New("fleet: MinFreeFrac must be in [0, 1)")
	case c.ShedFrac < 0 || c.ShedFrac > c.MinFreeFrac || math.IsNaN(c.ShedFrac):
		return errors.New("fleet: ShedFrac must be in [0, MinFreeFrac]")
	case c.Obs.Depth < 0:
		return errors.New("fleet: Obs.Depth must be non-negative")
	}
	if err := c.Crash.Validate(); err != nil {
		return fmt.Errorf("fleet: Crash: %w", err)
	}
	if err := c.Partition.Validate(); err != nil {
		return fmt.Errorf("fleet: Partition: %w", err)
	}
	return nil
}

// counters holds the fleet's tallies that are not events: the events
// themselves are tallied per kind in Cluster.tally.
type counters struct {
	heartbeatMisses uint64

	// Open-loop request accounting (Config.Load != nil).
	reqOffered  uint64
	reqAdmitted uint64
	reqServed   uint64
	reqDropped  uint64
}

// Cluster is a running fleet.
type Cluster struct {
	cfg        Config
	nodes      []*node
	containers []*Container
	events     []Event
	tally      [numEventKinds]uint64 // events per kind
	epoch      int
	ctr        counters

	reg          *telemetry.Registry
	histReplace  *telemetry.Hist
	histDowntime *telemetry.Hist
	histReqLat   *telemetry.Hist
	histXlat     *telemetry.Hist
	histQDelay   *telemetry.Hist

	// arrivals is the per-epoch scratch buffer Load.Arrivals fills.
	arrivals []int

	// sumRunning/sumUp accumulate per-epoch running-container and
	// up-node counts for the mean-density report line.
	sumRunning, sumUp uint64

	finished bool

	// Observability state (see obs.go): the control-plane span recorder,
	// the causal-parent bookkeeping (last unresolved cause per node and
	// per container), the epoch-driven series sampler and the flight
	// recorder's trigger latch and bundle budget.
	obsOn         bool
	ctlRec        *obs.Recorder
	nodeCause     []obs.SpanID
	ctCause       map[int]obs.SpanID
	sampler       *telemetry.Sampler
	flightTrigger string
	flightBundles int
}

// splitmix64 mixes per-node injector seeds (same avalanche mix as the
// injector's own coin flips).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// New builds a cluster: Nodes fresh machines, Containers pending
// containers (the first epoch's scheduler pass places them), and armed
// per-node fault injectors.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg}
	c.initObs()
	for i := 0; i < cfg.Nodes; i++ {
		crashCfg, partCfg := cfg.Crash, cfg.Partition
		crashCfg.Seed ^= splitmix64(uint64(i) + 0xF1EE7)
		partCfg.Seed ^= splitmix64(uint64(i) + 0x9A127171)
		n := &node{
			id:    i,
			crash: memsys.NewInjector(crashCfg),
			part:  memsys.NewInjector(partCfg),
		}
		// Phase-stagger Nth-mode faults across the fleet: node i's
		// injectors start i events into the sequence.
		n.crash.Skip(uint64(i))
		n.part.Skip(uint64(i))
		if c.obsOn {
			// The recorder outlives machine rebuilds: one span stream per
			// node across every incarnation (scope = node ID keeps its IDs
			// disjoint from every other recorder at the same seed).
			n.rec = obs.NewRecorder(cfg.Seed, uint64(i), cfg.Obs.RingDepth())
		}
		n.buildMachine(c)
		c.nodes = append(c.nodes, n)
	}
	for i := 0; i < cfg.Containers; i++ {
		c.containers = append(c.containers, &Container{ID: i, Node: -1})
	}
	if cfg.Load != nil {
		c.arrivals = make([]int, cfg.Containers)
	}
	c.registerMetrics()
	return c, nil
}

// Epoch returns the cluster clock (epochs completed).
func (c *Cluster) Epoch() int { return c.epoch }

// Events returns the audit log in deterministic order.
func (c *Cluster) Events() []Event { return c.events }

// Containers returns the fleet's container records.
func (c *Cluster) Containers() []*Container { return c.containers }

// Registry returns the fleet telemetry registry.
func (c *Cluster) Registry() *telemetry.Registry { return c.reg }

// event appends one audit-log entry and, with obs on, mirrors it as a
// causally-parented control-plane span, returning the span's ID so the
// call site can pass it as the explicit cause of follow-on events.
func (c *Cluster) event(kind EventKind, nodeID, containerID int, detail string) obs.SpanID {
	return c.eventCaused(kind, nodeID, containerID, detail, 0)
}

// eventCaused is event with an explicit causal parent for the mirrored
// span (0 = derive from the subject's cause chain).
func (c *Cluster) eventCaused(kind EventKind, nodeID, containerID int, detail string, cause obs.SpanID) obs.SpanID {
	c.events = append(c.events, Event{
		Epoch: c.epoch, Kind: kind, Node: nodeID, Container: containerID, Detail: detail,
	})
	c.tally[kind]++
	if !c.obsOn {
		return 0
	}
	return c.recordEventSpan(kind, nodeID, containerID, detail, cause)
}

// Run executes the configured number of epochs and then finalizes the
// fleet-wide latency roll-up.
func (c *Cluster) Run() error {
	for i := 0; i < c.cfg.Epochs; i++ {
		if err := c.Step(); err != nil {
			return err
		}
	}
	c.Finish()
	return c.finalFlight()
}

// Step advances the cluster one epoch: a parallel data-plane phase in
// which every live node's machine runs EpochInstr instructions per core
// (nodes are independent machines, so any worker-pool width yields the
// same result), then a sequential control-plane phase in node-ID order —
// OOM absorption, fault injection, heartbeats, failure detection, node
// recovery, degradation and the scheduler pass.
func (c *Cluster) Step() error {
	c.epoch++
	ctlEpoch := c.beginEpoch()
	c.admitLoad()
	var p par.Plan
	for _, n := range c.nodes {
		if n.state != NodeUp || len(n.running()) == 0 {
			continue
		}
		n := n
		n.beginEpochSpan()
		p.Add(fmt.Sprintf("node%d", n.id), func() error {
			if err := n.m.Run(c.cfg.EpochInstr); err != nil {
				return fmt.Errorf("fleet: node %d epoch %d: %w", n.id, c.epoch, err)
			}
			return nil
		})
	}
	if err := p.Execute(c.cfg.Jobs); err != nil {
		return err
	}
	for _, n := range c.nodes {
		n.endEpochSpan(c.epoch, ctlEpoch)
	}
	c.drainServed()
	c.absorbOOMKills()
	c.injectFaults()
	c.heartbeats()
	c.detectFailures()
	c.recoverNodes()
	c.shedOverloaded()
	c.placePending()
	c.sumRunning += uint64(c.runningCount())
	c.sumUp += uint64(c.upCount())
	if c.sampler != nil {
		c.sampler.Tick(uint64(c.epoch))
	}
	if c.flightTrigger != "" {
		t := c.flightTrigger
		c.flightTrigger = ""
		if err := c.flightDump("epoch", t); err != nil {
			return err
		}
	}
	return nil
}

// Finish merges per-task request latencies (and, with NodeTelemetry,
// per-node translation histograms) into the fleet-wide log2 histograms.
// Idempotent; Run calls it automatically. Crashed incarnations were
// already harvested at crash time (see injectFaults), so only the
// surviving machines remain.
func (c *Cluster) Finish() {
	if c.finished {
		return
	}
	c.finished = true
	for _, n := range c.nodes {
		if n.m == nil {
			continue
		}
		c.harvestMachine(n.m)
	}
}

// harvestMachine merges one machine incarnation's per-task request
// latencies (every task it ever hosted, in schedule order — including
// shed, fenced and OOM-killed containers, whose served requests count)
// and, with NodeTelemetry, its translation histogram into the
// fleet-wide roll-ups. Called by Finish for surviving machines and at
// crash time for dying incarnations — a crash must not discard the
// latency samples the node already served.
func (c *Cluster) harvestMachine(m *sim.Machine) {
	for _, t := range m.Tasks() {
		t.Lat.Each(c.histReqLat.Observe)
	}
	if c.cfg.NodeTelemetry {
		c.histXlat.Merge(m.XlatHist())
	}
}

// admitLoad runs the open-loop arrival phase: the load source's
// per-container arrivals for this epoch enter bounded pending queues
// (overflow is dropped — admission control), then every running
// container's gate target rises to cover its backlog so the data plane
// drains exactly the admitted requests. Offered load is a pure function
// of the epoch number: degradation never slows arrivals.
func (c *Cluster) admitLoad() {
	if c.cfg.Load == nil {
		return
	}
	c.cfg.Load.Arrivals(c.epoch-1, c.arrivals)
	for i, n := range c.arrivals {
		if n == 0 {
			continue
		}
		ct := c.containers[i]
		c.ctr.reqOffered += uint64(n)
		if ct.Lost || ct.Completed {
			c.ctr.reqDropped += uint64(n)
			continue
		}
		for k := 0; k < n; k++ {
			if len(ct.pend) >= c.cfg.QueueCap {
				c.ctr.reqDropped += uint64(n - k)
				break
			}
			ct.pend = append(ct.pend, c.epoch)
			c.ctr.reqAdmitted++
		}
	}
	for _, ct := range c.containers {
		if ct.gate != nil && ct.Running() {
			ct.gate.SetTarget(ct.gateSeen + uint64(len(ct.pend)))
		}
	}
}

// drainServed reconciles gate progress after the data-plane phase:
// requests the gates emitted this epoch leave the pending queues
// oldest-first, each recording its admit-to-serve queueing delay. Runs
// before fault injection so a node crashing this epoch cannot lose the
// serve accounting of work it already did.
func (c *Cluster) drainServed() {
	if c.cfg.Load == nil {
		return
	}
	for _, ct := range c.containers {
		if ct.gate == nil {
			continue
		}
		newly := int(ct.gate.Emitted() - ct.gateSeen)
		ct.gateSeen = ct.gate.Emitted()
		if newly > len(ct.pend) {
			newly = len(ct.pend)
		}
		for k := 0; k < newly; k++ {
			c.histQDelay.Observe(uint64(c.epoch - ct.pend[k]))
			c.ctr.reqServed++
		}
		ct.pend = append(ct.pend[:0], ct.pend[newly:]...)
	}
}

// queueDepth is the total number of requests waiting in container
// pending queues.
func (c *Cluster) queueDepth() int {
	n := 0
	for _, ct := range c.containers {
		n += len(ct.pend)
	}
	return n
}

// requeue sends a container back to the placement queue.
func (c *Cluster) requeue(ct *Container, detail string) {
	c.requeueCaused(ct, detail, 0)
}

// requeueCaused is requeue with the span of the causing event (condemn,
// OOM kill, shed) as the queued span's causal parent.
//
// Attempts deliberately resets here: it is the per-episode counter that
// drives placement backoff within one stay in the queue. The lifetime
// bound is Requeues, checked against Config.RequeueBudget — without it a
// container ping-ponging through shed/condemn/OOM cycles would reset
// Attempts forever and never trip the EvLost audit.
func (c *Cluster) requeueCaused(ct *Container, detail string, cause obs.SpanID) {
	ct.Node = -1
	ct.task = nil
	ct.gate = nil
	ct.gateSeen = 0
	ct.Attempts = 0
	ct.Requeues++
	if ct.Requeues > c.cfg.RequeueBudget {
		ct.Lost = true
		c.eventCaused(EvLost, -1, ct.ID,
			fmt.Sprintf("requeue budget %d exhausted", c.cfg.RequeueBudget), cause)
		return
	}
	ct.NextTry = c.epoch
	ct.QueuedAt = c.epoch
	c.eventCaused(EvQueued, -1, ct.ID, detail, cause)
}

// degrade closes a node's admissions for DegradeEpochs (extending any
// current degradation window).
func (c *Cluster) degrade(n *node, detail string) {
	if c.epoch >= n.degradedUntil {
		c.event(EvDegraded, n.id, -1, detail)
	}
	n.degradedUntil = c.epoch + c.cfg.DegradeEpochs
}

// absorbOOMKills turns node-machine OOM kills into fleet escalation
// events: the killed container re-enters the queue and the node is
// degraded — the step past reclaim that keeps the node alive.
func (c *Cluster) absorbOOMKills() {
	for _, n := range c.nodes {
		if n.state != NodeUp {
			continue
		}
		kills := n.m.OOMKills() - n.oomSeen
		if kills == 0 {
			continue
		}
		n.oomSeen = n.m.OOMKills()
		for _, p := range append([]placement(nil), n.placed...) {
			ct := p.ct
			if p.task.OOMKilled && ct.Node == n.id && ct.task == p.task {
				n.dropPlacement(ct)
				// Cross-layer causal link: the machine recorder's OOM-kill
				// span (if spans are on) parents the fleet escalation.
				cause := c.eventCaused(EvOOMKill, n.id, ct.ID, "node OOM killer", n.m.LastOOMSpan())
				c.requeueCaused(ct, "oom-killed", cause)
			}
		}
		c.degrade(n, "oom escalation")
	}
}

// injectFaults pulses every node's crash and partition injectors once.
// Injectors advance even on down nodes, keeping each node's fault
// pattern a pure function of (config, node ID, epoch).
func (c *Cluster) injectFaults() {
	for _, n := range c.nodes {
		crashed := n.crash.Fire()
		parted := n.part.Fire()
		if n.state != NodeUp {
			continue
		}
		if crashed {
			c.event(EvCrash, n.id, -1, "")
			n.state = NodeDown
			n.downSince = c.epoch
			n.restartAt = c.epoch + c.cfg.RestartEpochs
			// The machine — and every task on it — is gone. Containers
			// assigned here stay assigned until the failure detector
			// notices; their dead tasks must not read as running.
			for _, p := range n.placed {
				if p.ct.Node == n.id && p.ct.task == p.task {
					p.ct.task = nil
				}
			}
			// Harvest the dying incarnation's served-request samples
			// before dropping the machine: the latency a request already
			// paid is history, not state that dies with the node.
			c.harvestMachine(n.m)
			n.placed = nil
			n.m = nil
			n.dep = nil
			continue
		}
		if parted && !n.partitioned(c.epoch) {
			c.event(EvPartition, n.id, -1, fmt.Sprintf("%d epochs", c.cfg.PartitionEpochs))
			n.partitionedUntil = c.epoch + c.cfg.PartitionEpochs
		}
	}
}

// heartbeats delivers (or fails to deliver) each node's heartbeat and
// reconciles the controller's assignment view against what a reporting
// node actually runs — a node that crashed and restarted inside the
// suspicion window reports an empty container set, and the controller
// re-queues the containers it believed were there.
func (c *Cluster) heartbeats() {
	for _, n := range c.nodes {
		if n.state == NodeUp && n.partitionedUntil != 0 && c.epoch >= n.partitionedUntil {
			n.partitionedUntil = 0
			c.event(EvHeal, n.id, -1, "")
		}
		delivered := n.state == NodeUp && !n.partitioned(c.epoch)
		if !delivered {
			c.ctr.heartbeatMisses++
			continue
		}
		n.lastSeen = c.epoch
		if n.hlth == Condemned {
			c.fence(n)
			c.event(EvRejoin, n.id, -1, "")
		}
		n.hlth = Healthy
		// Reconciliation: assigned containers the node does not run.
		for _, ct := range c.containers {
			if ct.Node != n.id {
				continue
			}
			if ct.task != nil && ct.task.Done && !ct.task.OOMKilled {
				// Ran to completion — a terminal state, not a failure.
				// Requeueing finished work would restart it and
				// double-count its duplicate task at Finish.
				n.dropPlacement(ct)
				ct.Node = -1
				ct.task = nil
				ct.gate = nil
				ct.Completed = true
				c.event(EvComplete, n.id, ct.ID, "ran to completion")
				continue
			}
			if ct.task == nil || ct.task.Done {
				n.dropPlacement(ct)
				c.requeue(ct, "reconciled: not running on node")
			}
		}
	}
}

// fence kills every stale local task on a rejoining condemned node: the
// controller already re-placed those containers, so letting them run
// would double-place them.
func (c *Cluster) fence(n *node) {
	for _, p := range n.placed {
		if !p.task.Done {
			n.m.KillTask(p.task)
			c.event(EvFence, n.id, p.ct.ID, "stale after condemnation")
		}
	}
	n.placed = nil
}

// detectFailures advances the heartbeat-driven failure detector.
func (c *Cluster) detectFailures() {
	for _, n := range c.nodes {
		missed := c.epoch - n.lastSeen
		if missed <= 0 {
			continue
		}
		if n.hlth == Healthy {
			n.hlth = Suspect
			c.event(EvSuspect, n.id, -1, fmt.Sprintf("%d heartbeat missed", missed))
		}
		if n.hlth == Suspect && missed > c.cfg.SuspicionEpochs {
			n.hlth = Condemned
			cause := c.event(EvCondemn, n.id, -1, fmt.Sprintf("%d heartbeats missed", missed))
			for _, ct := range c.containers {
				if ct.Node == n.id {
					// The stale task (if the node is partitioned, not
					// crashed) stays in n.placed for fencing at rejoin.
					c.requeueCaused(ct, "node condemned", cause)
				}
			}
		}
	}
}

// recoverNodes restarts crashed nodes whose downtime has elapsed.
func (c *Cluster) recoverNodes() {
	for _, n := range c.nodes {
		if n.state == NodeDown && c.epoch >= n.restartAt {
			n.state = NodeUp
			n.buildMachine(c)
			c.histDowntime.Observe(uint64(c.epoch - n.downSince))
			c.event(EvRestart, n.id, -1, fmt.Sprintf("down %d epochs", c.epoch-n.downSince))
		}
	}
}

// shedOverloaded degrades nodes under memory pressure and sheds their
// newest container (one per epoch — gradual, not a mass eviction).
func (c *Cluster) shedOverloaded() {
	for _, n := range c.nodes {
		if n.state != NodeUp || n.freeFrac() >= c.cfg.ShedFrac {
			continue
		}
		c.degrade(n, fmt.Sprintf("free frames %.1f%%", 100*n.freeFrac()))
		run := n.running()
		if len(run) <= 1 {
			continue // never shed a node's last container
		}
		victim := run[len(run)-1]
		n.m.KillTask(victim.task)
		n.dropPlacement(victim)
		cause := c.event(EvShed, n.id, victim.ID, "overload")
		c.requeueCaused(victim, "shed", cause)
	}
}

// runningCount is the number of containers with a live task.
func (c *Cluster) runningCount() int {
	n := 0
	for _, ct := range c.containers {
		if ct.Running() {
			n++
		}
	}
	return n
}

// pendingCount is the number of containers waiting in the queue.
func (c *Cluster) pendingCount() int {
	n := 0
	for _, ct := range c.containers {
		if !ct.Lost && !ct.Completed && ct.Node < 0 {
			n++
		}
	}
	return n
}

// upCount is the number of nodes whose machine is running.
func (c *Cluster) upCount() int {
	n := 0
	for _, nd := range c.nodes {
		if nd.state == NodeUp {
			n++
		}
	}
	return n
}

// placePending is the scheduler pass: every queued container whose
// backoff has elapsed is offered, least-loaded node first (ties to the
// lower ID), to every admitting node until one accepts. A fully refused
// attempt schedules the next try with capped exponential backoff and
// burns one unit of the retry budget.
func (c *Cluster) placePending() {
	for _, ct := range c.containers {
		if ct.Lost || ct.Completed || ct.Node >= 0 || c.epoch < ct.NextTry {
			continue
		}
		if c.tryPlace(ct) {
			continue
		}
		ct.Attempts++
		if ct.Attempts > c.cfg.RetryBudget {
			ct.Lost = true
			c.event(EvLost, -1, ct.ID, fmt.Sprintf("retry budget %d exhausted", c.cfg.RetryBudget))
			continue
		}
		backoff := c.cfg.BackoffCap
		if shift := ct.Attempts - 1; shift < 30 {
			if b := c.cfg.BackoffBase << shift; b < backoff {
				backoff = b
			}
		}
		ct.NextTry = c.epoch + backoff
		c.event(EvPlaceFail, -1, ct.ID, fmt.Sprintf("attempt %d, retry in %d", ct.Attempts, backoff))
	}
}

// tryPlace offers the container to admitting nodes in preference order.
func (c *Cluster) tryPlace(ct *Container) bool {
	type cand struct {
		n    *node
		load int
	}
	var cands []cand
	for _, n := range c.nodes {
		if n.admits(c, c.epoch) {
			cands = append(cands, cand{n, len(n.running())})
		}
	}
	// Least-loaded first; stable slice order keeps ties on the lower ID.
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].load < cands[j-1].load; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	for _, cd := range cands {
		if c.placeOn(cd.n, ct) {
			return true
		}
	}
	return false
}

// placeOn spawns the container on the node; an out-of-memory deploy,
// fork or prefault is an admission failure (the partial spawn is rolled
// back and the node degraded), any other error is a bug surfaced as a
// lost placement at audit time.
func (c *Cluster) placeOn(n *node, ct *Container) bool {
	d, err := n.deployment(c)
	if err != nil {
		if errors.Is(err, physmem.ErrOutOfMemory) {
			c.degrade(n, "deploy OOM")
			return false
		}
		panic(fmt.Sprintf("fleet: node %d deploy failed: %v", n.id, err))
	}
	seed := c.cfg.Seed + 7_777_777*uint64(ct.ID) + uint64(ct.Placements)
	core := n.placeSeq % c.cfg.Params.Cores
	n.placeSeq++
	task, _, err := d.Spawn(core, seed)
	if err != nil {
		if errors.Is(err, physmem.ErrOutOfMemory) {
			c.degrade(n, "fork OOM")
			return false
		}
		panic(fmt.Sprintf("fleet: node %d spawn failed: %v", n.id, err))
	}
	proc := d.Containers[len(d.Containers)-1]
	if err := d.PrefaultContainer(proc); err != nil {
		n.m.KillTask(task)
		if errors.Is(err, physmem.ErrOutOfMemory) {
			c.degrade(n, "prefault OOM")
			return false
		}
		panic(fmt.Sprintf("fleet: node %d prefault failed: %v", n.id, err))
	}
	if c.cfg.Load != nil {
		// Wrap the workload behind an admission gate so the task drains
		// exactly the container's admitted backlog. The pending queue
		// survives re-placement; the fresh gate opens to cover it.
		g := workloads.NewRequestGate(task.Gen)
		task.Gen = g
		ct.gate = g
		ct.gateSeen = 0
		g.SetTarget(uint64(len(ct.pend)))
	}
	n.placed = append(n.placed, placement{ct: ct, task: task})
	ct.Node = n.id
	ct.task = task
	ct.Placements++
	ct.Attempts = 0
	c.histReplace.Observe(uint64(c.epoch - ct.QueuedAt))
	c.event(EvPlaced, n.id, ct.ID, fmt.Sprintf("delay %d epochs", c.epoch-ct.QueuedAt))
	return true
}
