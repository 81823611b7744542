package fleet

import (
	"strings"
	"testing"

	"babelfish/internal/kernel"
	"babelfish/internal/loadgen"
	"babelfish/internal/memdefs"
	"babelfish/internal/memsys"
	"babelfish/internal/sim"
	"babelfish/internal/workloads"
)

// TestOpenLoopOverload: a fleet-wide offered load far above what one
// small node can serve. Open-loop semantics require the arrival stream
// to keep coming regardless of service progress: the bounded queues
// must overflow (drops), the served count must trail the offered count
// by a wide margin, and served requests must show real queueing delay.
func TestOpenLoopOverload(t *testing.T) {
	cfg := testConfig(1, 4)
	cfg.QueueCap = 8
	cfg.Load = loadgen.Split(loadgen.Constant{RPS: 400}, 4, cfg.Seed)
	c := mustRun(t, cfg)

	if got, want := c.ctr.reqOffered, uint64(400*cfg.Epochs); got != want {
		t.Errorf("offered = %d, want %d (arrivals must not slow under overload)", got, want)
	}
	if c.ctr.reqDropped == 0 {
		t.Errorf("no drops despite queue cap %d and offered %d", cfg.QueueCap, c.ctr.reqOffered)
	}
	if 2*c.ctr.reqServed >= c.ctr.reqOffered {
		t.Errorf("served %d of %d offered: node should not keep up with this load",
			c.ctr.reqServed, c.ctr.reqOffered)
	}
	if got := c.ctr.reqAdmitted + c.ctr.reqDropped; got != c.ctr.reqOffered {
		t.Errorf("offered %d != admitted %d + dropped %d",
			c.ctr.reqOffered, c.ctr.reqAdmitted, c.ctr.reqDropped)
	}
	if got := c.ctr.reqServed + uint64(c.queueDepth()); got != c.ctr.reqAdmitted {
		t.Errorf("admitted %d != served %d + backlog %d",
			c.ctr.reqAdmitted, c.ctr.reqServed, c.queueDepth())
	}
	if c.histQDelay.Count() == 0 || c.histQDelay.Max() < 1 {
		t.Errorf("queue delay idle under overload: count %d, max %d",
			c.histQDelay.Count(), c.histQDelay.Max())
	}
	if !strings.Contains(c.Report(), "load:") {
		t.Errorf("report omits the load line with Load configured:\n%s", c.Report())
	}
}

// TestFlashCrowdReplayIdentical: a flash-crowd spike replays to a
// byte-identical report and event log at any worker-pool width and at
// any sharded-core width — the determinism bar every fleet feature
// must clear, and the one open-loop admission is most at risk of
// breaking (gates starve and refill mid-quantum).
func TestFlashCrowdReplayIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("flash-crowd replay is slow")
	}
	runAt := func(jobs, shards int) (string, string) {
		cfg := testConfig(4, 8)
		cfg.Jobs = jobs
		cfg.Params.CoreShards = shards
		cfg.QueueCap = 8
		cfg.Load = loadgen.Split(loadgen.Flash{Base: 4, Peak: 200, Start: 4, Len: 3}, 8, cfg.Seed)
		c := mustRun(t, cfg)
		return c.Report(), eventLog(c)
	}
	rep1, ev1 := runAt(1, 0)
	rep4, ev4 := runAt(4, 0)
	if ev1 != ev4 {
		t.Fatalf("event logs differ between jobs=1 and jobs=4:\n--- jobs=1\n%s--- jobs=4\n%s", ev1, ev4)
	}
	if rep1 != rep4 {
		t.Fatalf("reports differ between jobs=1 and jobs=4:\n--- jobs=1\n%s--- jobs=4\n%s", rep1, rep4)
	}
	srep2, sev2 := runAt(1, 2)
	srep3, sev3 := runAt(4, 3)
	if sev2 != sev3 || srep2 != srep3 {
		t.Fatalf("sharded runs differ between shards=2 and shards=3:\n--- shards=2\n%s--- shards=3\n%s", srep2, srep3)
	}
}

// TestCrashRetainsLatencySamples guards the crash-path accounting fix:
// a node crash discards the machine, and before the fix it discarded
// every request-latency sample the machine's tasks had accumulated
// with it. With the only node down at run end, Finish has no surviving
// machine to harvest — every sample in the final histogram must have
// been rescued at crash time.
func TestCrashRetainsLatencySamples(t *testing.T) {
	cfg := testConfig(1, 2)
	cfg.Epochs = 10
	cfg.Crash = memsys.InjectConfig{Nth: 9, MaxFaults: 1}
	cfg.RestartEpochs = 100 // stays down past the end of the run
	c := mustRun(t, cfg)
	if c.tally[EvCrash] != 1 {
		t.Fatalf("crashes = %d, want 1", c.tally[EvCrash])
	}
	if c.upCount() != 0 {
		t.Fatalf("node restarted within the run; the regression needs it to stay down")
	}
	if c.histReqLat.Count() == 0 {
		t.Errorf("request-latency histogram empty: crash discarded the machine's samples")
	}
}

// finiteGen emits a fixed number of three-step requests and then
// reports completion — the workload shape the completed-container
// requeue fix needs: before the fix a finished task looked like a
// failed one to the heartbeat reconciler and was requeued forever.
type finiteGen struct {
	env  workloads.Env
	reqs int
	step int
}

func (g *finiteGen) Next(out *sim.Step) bool {
	if g.reqs <= 0 {
		return false
	}
	e := &g.env
	*out = sim.Step{Kind: memdefs.AccessData, Think: 2}
	switch g.step {
	case 0:
		out.VA = e.P.ProcVA(e.RDataset.PageVA(g.reqs % e.RDataset.Pages))
		out.Req = sim.ReqStart
	case 1:
		out.VA = e.P.ProcVA(e.RScratch.PageVA(g.reqs % e.RScratch.Pages))
		out.Write = true
	case 2:
		out.VA = e.P.ProcVA(e.RBin.PageVA(g.reqs % e.RBin.Pages))
		out.Kind = memdefs.AccessInstr
		out.Req = sim.ReqEnd
	}
	g.step++
	if g.step == 3 {
		g.step = 0
		g.reqs--
	}
	return true
}

// finiteSpec is a tiny app whose containers run to completion.
func finiteSpec(reqs int) *workloads.AppSpec {
	spec := &workloads.AppSpec{
		Name:  "finite",
		Class: workloads.DataServing,
		FP: workloads.Footprint{
			InfraPages: 64, BinPages: 32, BinDataPages: 8, LibPages: 32,
			DatasetPages: 64, PrivatePages: 16, ScratchPages: 16,
		},
		DatasetShared: true,
	}
	spec.NewGen = func(d *workloads.Deployment, p *kernel.Process, idx int, seed uint64) sim.Generator {
		return &finiteGen{env: d.Env(p), reqs: reqs}
	}
	return spec
}

// TestCompletionTerminal: containers whose workload finishes must land
// in the terminal Completed state — counted once, never requeued,
// never pending — instead of ping-ponging through the placement queue.
func TestCompletionTerminal(t *testing.T) {
	cfg := testConfig(1, 2)
	cfg.Spec = finiteSpec(40)
	cfg.Scale = 1
	c := mustRun(t, cfg)
	if c.tally[EvComplete] != 2 {
		t.Fatalf("completions = %d, want 2", c.tally[EvComplete])
	}
	if c.tally[EvPlaced] != 2 {
		t.Errorf("placements = %d, want 2 (completed containers must not be re-placed)", c.tally[EvPlaced])
	}
	if c.tally[EvQueued] != 0 || c.tally[EvLost] != 0 {
		t.Errorf("completed containers re-entered the queue: queued=%d lost=%d", c.tally[EvQueued], c.tally[EvLost])
	}
	if got := c.runningCount(); got != 0 {
		t.Errorf("running = %d, want 0 after completion", got)
	}
	if got := c.pendingCount(); got != 0 {
		t.Errorf("pending = %d, want 0: Completed is terminal", got)
	}
	for _, ct := range c.containers {
		if !ct.Completed || ct.Lost {
			t.Errorf("container %d: Completed=%v Lost=%v, want terminal completion", ct.ID, ct.Completed, ct.Lost)
		}
	}
	if !strings.Contains(eventLog(c), "complete") {
		t.Errorf("no complete event recorded:\n%s", eventLog(c))
	}
	if rep := c.Audit(); !rep.OK() {
		t.Errorf("audit:\n%s", rep)
	}
}

// TestRequeuePingPongExhaustsBudget guards the Attempts-reset fix:
// every queue re-entry resets the per-episode Attempts backoff counter,
// so only the lifetime Requeues budget can stop a container cycling
// through shed/condemn/OOM forever. Exhausting it must trip EvLost.
func TestRequeuePingPongExhaustsBudget(t *testing.T) {
	cfg := testConfig(1, 1)
	cfg.RequeueBudget = 4
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ct := c.containers[0]
	for i := 0; i < 4; i++ {
		c.requeue(ct, "ping-pong")
		if ct.Lost {
			t.Fatalf("lost after %d requeues, budget is %d", i+1, cfg.RequeueBudget)
		}
		if ct.Attempts != 0 {
			t.Fatalf("Attempts = %d after requeue, want 0 (per-episode reset)", ct.Attempts)
		}
	}
	c.requeue(ct, "ping-pong")
	if !ct.Lost {
		t.Fatal("budget-exhausting requeue did not mark the container lost")
	}
	if c.tally[EvLost] != 1 {
		t.Errorf("lost counter = %d, want 1", c.tally[EvLost])
	}
	if log := eventLog(c); !strings.Contains(log, "requeue budget 4 exhausted") {
		t.Errorf("event log missing the budget-exhausted lost event:\n%s", log)
	}
}

// BenchmarkFleetLoadEpoch is BenchmarkFleetEpoch with an open-loop
// arrival stream attached: the same healthy 4-node fleet, plus the
// admit/drain bookkeeping and gate-bounded stepping per epoch.
func BenchmarkFleetLoadEpoch(b *testing.B) {
	cfg := testConfig(4, 8)
	cfg.Epochs = 1 << 30 // stepped manually
	cfg.Load = loadgen.Split(loadgen.Constant{RPS: 64}, 8, cfg.Seed)
	c, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Step(); err != nil { // placement epoch outside the timer
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEventCountersMatchLog: each per-kind fleet.* counter reads the
// number of events of that kind in the audit log, after a chaos run and
// after an open-loop flash run with seeded crashes and partitions.
func TestEventCountersMatchLog(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos and flash runs are slow")
	}
	flash := testConfig(4, 8)
	flash.Epochs = 24
	flash.QueueCap = 8
	flash.Load = loadgen.Split(loadgen.Flash{Base: 8, Peak: 256, Start: 8, Len: 3}, 8, flash.Seed)
	flash.Crash = memsys.InjectConfig{Seed: 3, Prob: 0.02}
	flash.Partition = memsys.InjectConfig{Seed: 4, Prob: 0.02}
	for name, cfg := range map[string]Config{"chaos": chaosConfig(), "flash": flash} {
		c := mustRun(t, cfg)
		var want [numEventKinds]uint64
		for _, e := range c.Events() {
			want[e.Kind]++
		}
		if want[EvCrash] == 0 || want[EvPlaced] == 0 {
			t.Fatalf("%s: run logged %d crashes and %d placements, want both", name, want[EvCrash], want[EvPlaced])
		}
		for k := range numEventKinds {
			metric := "fleet." + eventMetrics[k].name
			got, ok := c.Registry().Value(metric)
			if !ok || uint64(got) != want[k] {
				t.Errorf("%s: %s = %v (registered %v), want %d %s events", name, metric, got, ok, want[k], k)
			}
		}
	}
}
