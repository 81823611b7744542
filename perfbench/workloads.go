package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"babelfish/internal/container"
	"babelfish/internal/experiments"
	"babelfish/internal/fleet"
	"babelfish/internal/loadgen"
	"babelfish/internal/memsys"
	"babelfish/internal/sim"
	"babelfish/internal/telemetry"
	"babelfish/internal/workloads"
)

// jobs is the worker-pool width of the parallel workloads. It is fixed
// rather than taken from the host so that a figure keeps its meaning
// across hosts; a host with fewer CPUs is refused.
const jobs = 2

// repOut is what one repetition of a workload reports. A repetition
// builds everything afresh from its input seed, so two repetitions with
// the same input seed must produce identical simulated statistics.
type repOut struct {
	setupS  float64   // host seconds of set-up; negative when there is none
	opMS    []float64 // host time of each timed operation
	refMS   []float64 // the reference loop's time around each operation
	digests []uint64  // simulated-state digest after each successful operation
	opErrs  int       // operations that returned an error (the rest were skipped)
	// instrs is the simulated instructions executed by the timed
	// operations (0 where no public API exposes them).
	instrs     uint64
	violations []string           // auditor findings after the timed phase
	counters   map[string]float64 // exact simulated counters after the timed phase
}

// workload is one benchmark input set.
type workload struct {
	name    string
	workers int // goroutines stepping the simulation
	inputs  int // input sets the repetitions cycle through
	minReps int
	rep     func(b *bench, seed uint64, tr *tracer) (*repOut, error)
}

// bench carries what every repetition needs.
type bench struct {
	seed   uint64   // the run's workload seed
	golden []byte   // the pinned quick-suite report
	meter  *opMeter // set while a profiled pass times its operations

	refTable [refWords]uint64 // the reference loop's working set
}

// The machine workloads' host cost depends on the seeded layout and
// request streams (one seed's serve-steady chunks run 30% faster than
// another's), so each run cycles through machineInputs input sets drawn
// from its seed, and its median covers all of them.
const machineInputs = 8

var workloadList = []workload{
	{name: "serve-steady", workers: 1, inputs: machineInputs, minReps: machineInputs, rep: serveSteady},
	{name: "start-storm", workers: 1, inputs: machineInputs, minReps: machineInputs, rep: startStorm},
	{name: "fleet-flash", workers: jobs, inputs: machineInputs, minReps: machineInputs, rep: fleetFlash},
	{name: "suite-quick", workers: jobs, inputs: 1, minReps: 2, rep: suiteQuick},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloadList {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// mix derives an independent sub-seed from the workload seed.
func mix(seed, salt uint64) uint64 {
	x := seed ^ (salt * 0x9e3779b97f4a7c15)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// snapshot reads every metric of a registry, prefixing the names.
func snapshot(dst map[string]float64, prefix string, reg *telemetry.Registry) {
	for _, v := range reg.Snapshot("").Values {
		dst[prefix+v.Name] = v.Value
	}
}

// digest hashes every metric of the given registries, in registration
// order, bit-exactly.
func digest(regs ...*telemetry.Registry) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, r := range regs {
		for _, v := range r.Snapshot("").Values {
			h.Write([]byte(v.Name))
			bits := math.Float64bits(v.Value)
			for i := range b {
				b[i] = byte(bits >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// auditMachine runs the TLB, kernel and physical-memory auditors.
func auditMachine(label string, m *sim.Machine) []string {
	var v []string
	for _, r := range [][]string{m.AuditTLBs().Violations, m.Kernel.Audit().Violations, m.Mem.Audit().Violations} {
		for _, s := range r {
			v = append(v, label+": "+s)
		}
	}
	return v
}

func simInstrs(m *sim.Machine) uint64 {
	v, _ := m.Registry.Value("sim.instrs")
	return uint64(v)
}

// serve-steady: MongoDB at scale 0.25 on a 2-core BabelFish machine with
// the quick-scale L3 and quantum, two containers per core, prefaulted and
// warmed, stepped by repeated Machine.Run calls on the classic schedule.
const (
	serveScale      = 0.25
	serveChunkInstr = 50_000 // per core, per timed Run call
	serveChunks     = 40
)

func serveSteady(b *bench, seed uint64, tr *tracer) (*repOut, error) {
	o := experiments.Quick()
	out := &repOut{}
	start := time.Now()
	m := sim.New(o.Params(experiments.BabelFish))
	d, err := workloads.Deploy(m, tr.wrapSpec(workloads.MongoDB()), serveScale, mix(seed, 1))
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	for core := 0; core < o.Cores; core++ {
		for j := 0; j < 2; j++ {
			t := time.Now()
			if _, _, err := d.Spawn(core, mix(seed, uint64(100+2*core+j))); err != nil {
				return nil, fmt.Errorf("spawn: %w", err)
			}
			tr.span("workloads.spawn_ms", t, time.Millisecond)
		}
	}
	if err := d.PrefaultAll(); err != nil {
		return nil, fmt.Errorf("prefault: %w", err)
	}
	if err := m.Run(o.WarmInstr); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	m.ResetStats()
	out.setupS = time.Since(start).Seconds()
	// The memory-system timers cover the timed phase only, like the
	// registry counters that ResetStats just cleared.
	tr.instrumentMachine(m)

	for i := 0; i < serveChunks; i++ {
		before := simInstrs(m)
		err := b.op(out, func() error { return m.Run(serveChunkInstr) })
		tr.record("sim.run_ms", out.opMS[len(out.opMS)-1])
		if err != nil {
			out.opErrs++
			break
		}
		out.instrs += simInstrs(m) - before
		out.digests = append(out.digests, digest(m.Registry))
	}
	out.violations = auditMachine("babelfish", m)
	out.counters = map[string]float64{}
	snapshot(out.counters, "", m.Registry)
	return out, nil
}

// start-storm: container starts and stops on a MongoDB deployment; each
// operation starts and stops one container seed on a baseline machine
// and then on a BabelFish machine.
const stormStarts = 40

func startStorm(b *bench, seed uint64, tr *tracer) (*repOut, error) {
	o := experiments.Quick()
	type side struct {
		label string
		m     *sim.Machine
		d     *workloads.Deployment
		e     *container.Engine
	}
	out := &repOut{}
	start := time.Now()
	var sides []side
	for _, a := range []experiments.Arch{experiments.Baseline, experiments.BabelFish} {
		m := sim.New(o.Params(a))
		d, err := workloads.Deploy(m, tr.wrapSpec(workloads.MongoDB()), serveScale, mix(seed, 1))
		if err != nil {
			return nil, fmt.Errorf("deploy %s: %w", a, err)
		}
		tr.instrumentMachine(m)
		sides = append(sides, side{a.String(), m, d, container.NewEngine(m)})
	}
	out.setupS = time.Since(start).Seconds()

	for i := 0; i < stormStarts; i++ {
		cs := mix(seed, uint64(1000+i))
		var before uint64
		for _, s := range sides {
			before += simInstrs(s.m)
		}
		err := b.op(out, func() error {
			for _, s := range sides {
				ts := time.Now()
				c, err := s.e.Start(s.d, i%o.Cores, cs)
				tr.span("container.start_ms", ts, time.Millisecond)
				if err != nil {
					return err
				}
				te := time.Now()
				s.e.Stop(s.d, c)
				tr.span("kernel.exit_us", te, time.Microsecond)
			}
			return nil
		})
		if err != nil {
			out.opErrs++
			break
		}
		regs := make([]*telemetry.Registry, len(sides))
		for j, s := range sides {
			out.instrs += simInstrs(s.m)
			regs[j] = s.m.Registry
		}
		out.instrs -= before
		out.digests = append(out.digests, digest(regs...))
	}
	out.counters = map[string]float64{}
	for _, s := range sides {
		out.violations = append(out.violations, auditMachine(s.label, s.m)...)
		snapshot(out.counters, s.label+"/", s.m.Registry)
	}
	return out, nil
}

// fleet-flash: 8 nodes x 2 cores x 256 MB running 16 MongoDB containers
// under an open-loop flash-crowd arrival shape with bounded queues, with
// seeded node crashes and partitions recurring through the run. Each
// timed operation is one Cluster.Step (epoch).
//
// The base rate offers 6 requests per container and epoch: enough to
// keep every container busy, and below the queue bound of 8. (The
// repository's CLI flash example, 1 request per container and epoch,
// leaves most epochs near idle: their median is about a quarter of a
// busy one's.) The peak is 4x the base, bffleet's default peak, and
// offers three times the queue bound; it starts at epochs/3 and
// lasts epochs/8, as bffleet places it. Crashes and partitions each
// strike a node-epoch with probability 0.004, about 6 of each per
// repetition of 8 nodes x 204 epochs.
const (
	fleetWarmEpochs = 4
	fleetEpochs     = 200
	fleetContainers = 16
	fleetQueueCap   = 8
	fleetBaseRPS    = 6 * fleetContainers
	fleetPeakRPS    = 4 * fleetBaseRPS
	fleetFaultProb  = 0.004
)

func fleetFlash(b *bench, seed uint64, tr *tracer) (*repOut, error) {
	p, err := sim.ParamsForArch("babelfish")
	if err != nil {
		return nil, err
	}
	p.Cores = 2
	p.MemBytes = 256 << 20
	cfg := fleet.DefaultConfig(p, tr.wrapSpec(workloads.MongoDB()))
	cfg.Nodes = 8
	cfg.Containers = fleetContainers
	cfg.Scale = serveScale
	cfg.Seed = mix(seed, 1)
	cfg.Epochs = fleetWarmEpochs + fleetEpochs
	cfg.Load = loadgen.Split(loadgen.Flash{
		Base: fleetBaseRPS, Peak: fleetPeakRPS, Start: cfg.Epochs / 3, Len: cfg.Epochs / 8,
	}, cfg.Containers, mix(seed, 2))
	cfg.QueueCap = fleetQueueCap
	cfg.Crash = memsys.InjectConfig{Seed: mix(seed, 3), Prob: fleetFaultProb}
	cfg.Partition = memsys.InjectConfig{Seed: mix(seed, 4), Prob: fleetFaultProb}
	cfg.Jobs = jobs

	out := &repOut{}
	start := time.Now()
	c, err := fleet.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	for i := 0; i < fleetWarmEpochs; i++ {
		if err := c.Step(); err != nil {
			return nil, fmt.Errorf("warm-up epoch: %w", err)
		}
	}
	out.setupS = time.Since(start).Seconds()

	for i := 0; i < fleetEpochs; i++ {
		if err := b.op(out, c.Step); err != nil {
			out.opErrs++
			break
		}
		out.digests = append(out.digests, digest(c.Registry()))
	}
	c.Finish()
	out.violations = c.Audit().Violations
	out.counters = map[string]float64{}
	snapshot(out.counters, "", c.Registry())
	if h, ok := c.Registry().Hist("fleet.req_latency"); ok {
		out.counters["fleet.req_latency_p99"] = h.Quantile(0.99)
	}
	return out, nil
}

// suite-quick: regenerate the quick-scale paper report and compare it
// byte for byte with the pinned golden. Its inputs are the golden's
// (experiments.Quick with its fixed seed); the workload seed cannot
// change them without invalidating the oracle.
func suiteQuick(b *bench, seed uint64, tr *tracer) (*repOut, error) {
	o := experiments.Quick()
	o.Jobs = jobs
	out := &repOut{setupS: -1}
	var buf bytes.Buffer
	err := b.op(out, func() error {
		rep, err := runSuite(o, tr)
		if err == nil {
			err = rep.WriteJSON(&buf)
		}
		return err
	})
	if err != nil {
		out.opErrs++
		return out, nil
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	out.digests = append(out.digests, h.Sum64())
	if !bytes.Equal(buf.Bytes(), b.golden) {
		out.violations = append(out.violations, "quick-suite report differs from testdata/arch_identity_golden.json")
	}
	return out, nil
}

// runSuite is experiments.RunAll, runner by runner under a span each
// when traced. The traced branch mirrors RunAll in internal/experiments
// (export.go) and must change with it: if RunAll stops running the
// runners one after another, the traced pass would time a different
// schedule than the untraced one. suiteDrift flags that.
func runSuite(o experiments.Options, tr *tracer) (*experiments.Report, error) {
	if tr == nil {
		return experiments.RunAll(o)
	}
	rep := &experiments.Report{Options: o}
	var err error
	timed := func(name string, f func() error) {
		if err != nil {
			return
		}
		t := time.Now()
		if e := f(); e != nil {
			err = fmt.Errorf("%s: %w", name, e)
		}
		tr.span("experiments."+name+"_s", t, time.Second)
	}
	timed("fig7", func() (e error) { rep.Fig7, e = experiments.Fig7(o); return })
	timed("fig9", func() (e error) { rep.Fig9, e = experiments.Fig9(o); return })
	timed("fig10", func() (e error) { rep.Fig10, e = experiments.Fig10(o); return })
	timed("fig11", func() error {
		f11, e := experiments.Fig11(o)
		if e == nil {
			rep.Fig11 = f11.Summarize()
			rep.TableII = f11.AttributionRows()
		}
		return e
	})
	rep.TableIII = experiments.TableIII()
	timed("largertlb", func() (e error) { rep.LargerTLB, e = experiments.LargerTLB(o); return })
	timed("bringup", func() (e error) { rep.Bringup, e = experiments.Bringup(o); return })
	timed("resources", func() (e error) { rep.Resources, e = experiments.Resources(o); return })
	return rep, err
}

// suiteDrift compares the traced pass's figure spans with the untraced
// pass's regeneration time, over the same number of regenerations. The
// spans cover all of RunAll's work but writing the report, so a gap of
// more than a quarter means runSuite no longer mirrors RunAll.
func suiteDrift(plain *pass, tr *tracer) string {
	spans := 0.0
	for _, fig := range suiteFigures {
		spans += sum(tr.spans("experiments."+fig+"_s")) * 1e3
	}
	untraced := sum(plain.opMS)
	if r := ratio(spans, untraced); r < 0.75 || r > 1.25 {
		return fmt.Sprintf("traced figure spans sum to %.0f ms against %.0f ms untraced: runSuite may no longer mirror experiments.RunAll", spans, untraced)
	}
	return ""
}
