// Command bffleet runs a deterministic multi-node cluster of simulated
// machines under seeded fault injection and prints a fleet report:
// recovery-action tallies, re-placement delay, node downtime and request
// latency quantiles, and the achieved container density — for one
// architecture or side-by-side for baseline and BabelFish.
//
// Usage:
//
//	bffleet [-nodes N] [-cores N] [-mem-mb N] [-app mongodb|arangodb|httpd|graphchi|fio]
//	        [-arch NAME|both] [-scale F] [-containers N]
//	        [-epochs N] [-epoch-instr N] [-seed N]
//	        [-kill-nth N] [-kill-prob P] [-kill-seed N] [-kill-after N] [-kill-max N]
//	        [-part-nth N] [-part-prob P] [-part-seed N] [-part-after N] [-part-max N]
//	        [-part-len N] [-restart-after N] [-suspicion N]
//	        [-backoff-base N] [-backoff-cap N] [-retry-budget N]
//	        [-load-shape off|const|ramp|diurnal|flash|trace] [-load-rps F]
//	        [-load-peak F] [-load-trace FILE] [-queue-cap N] [-requeue-budget N]
//	        [-max-per-node N] [-min-free F] [-shed-free F] [-degrade-epochs N]
//	        [-jobs N] [-audit] [-events N] [-node-telemetry]
//	        [-core-shards N]
//	        [-trace-out FILE] [-series-out FILE] [-series-every N]
//	        [-flight-recorder DIR] [-flight-depth N]
//
// The -kill-* and -part-* flags arm per-node crash and partition
// injectors with the memory-system injector's policy shape: every Nth
// epoch pulse and/or with probability P per pulse, starting after the
// first -*-after pulses, capped at -*-max faults per node (0 =
// unlimited). Seeds are mixed and Nth phases staggered by node ID, so
// faults roll across the fleet instead of striking it in lockstep; the
// whole fault pattern is a pure function of the flags, so runs replay
// byte-identically.
//
// -load-shape attaches an open-loop offered-load stream: arrivals are a
// pure function of (shape, seed, epoch) and never slow down when the
// fleet degrades — service lag shows up as queueing delay and, past the
// -queue-cap bound, dropped requests, exactly like a production
// load generator. const offers -load-rps requests per epoch; ramp
// climbs linearly from -load-rps to -load-peak over the run; diurnal
// swings sinusoidally between them with the run as its period; flash
// holds -load-rps with a spike to -load-peak for epochs/8 epochs
// starting at epochs/3; trace replays an epoch,container,requests CSV
// (-load-trace). The report gains an offered/admitted/served/dropped
// line and a queue-delay histogram; output stays byte-identical at any
// -jobs or -core-shards width. -requeue-budget bounds how many times
// any one container may re-enter the placement queue before it is
// declared lost.
//
// -audit runs the fleet invariant auditor after the run — no container
// lost or double-placed, every assigned container reachable, and every
// up node's kernel/physmem/TLB books balanced — and exits non-zero on
// any violation. -events N prints the last N audit-log events. -jobs
// bounds the worker pool stepping node machines (0 = GOMAXPROCS);
// output is identical at any width.
//
// -core-shards N steps each node machine's cores on up to N goroutines
// with a deterministic quantum barrier; the report is identical at any
// width >= 1.
//
// -trace-out FILE exports the run's causal spans (fleet request →
// placement → node epoch → quantum → fault) and fleet/machine trace
// events after the run: Chrome trace-event JSON for Perfetto by
// default, compact JSONL when FILE ends in .jsonl. With -arch both the
// stream names are prefixed per architecture. -series-out FILE streams
// a per-epoch time series of the fleet registry while the run is live
// (Prometheus text when FILE ends in .prom, JSONL otherwise; single
// -arch only); -series-every N widens the sampling interval to every
// Nth epoch. -flight-recorder DIR arms post-mortem capture: on a
// condemnation, OOM-kill escalation or container loss the cluster
// dumps a bundle (trace.json, trace.jsonl, metrics.prom, audit.txt) of
// the spans retained in its bounded rings; -flight-depth N sizes those
// rings (default 4096 spans per node). All obs output is deterministic:
// the same flags replay byte-identical files at any -jobs width, and
// leaving them off leaves the simulation byte-identical to builds
// without them.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"babelfish/internal/fleet"
	"babelfish/internal/loadgen"
	"babelfish/internal/memsys"
	"babelfish/internal/metrics"
	"babelfish/internal/obs"
	"babelfish/internal/sim"
	"babelfish/internal/telemetry"
	"babelfish/internal/workloads"
	"babelfish/internal/xlatpolicy"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		nodes      = flag.Int("nodes", 8, "cluster size")
		cores      = flag.Int("cores", 2, "cores per node")
		memMB      = flag.Uint64("mem-mb", 256, "physical memory per node, MB")
		app        = flag.String("app", "mongodb", "workload: mongodb, arangodb, httpd, graphchi, fio")
		arch       = flag.String("arch", "both", "architecture: "+xlatpolicy.UsageList("both"))
		scale      = flag.Float64("scale", 0.25, "dataset scale factor")
		containers = flag.Int("containers", 24, "containers the fleet must keep running")
		epochs     = flag.Int("epochs", 24, "control-loop epochs")
		epochInstr = flag.Uint64("epoch-instr", 20_000, "per-core instruction budget per epoch")
		seed       = flag.Uint64("seed", 42, "random seed")

		killNth   = flag.Uint64("kill-nth", 0, "crash a node on every Nth epoch pulse (0 = off; staggered by node ID)")
		killProb  = flag.Float64("kill-prob", 0, "crash probability per node per epoch (0 = off)")
		killSeed  = flag.Uint64("kill-seed", 1, "crash-injector seed")
		killAfter = flag.Uint64("kill-after", 0, "suppress crashes for the first N epochs")
		killMax   = flag.Uint64("kill-max", 0, "cap crashes per node (0 = unlimited)")

		partNth   = flag.Uint64("part-nth", 0, "partition a node on every Nth epoch pulse (0 = off)")
		partProb  = flag.Float64("part-prob", 0, "partition probability per node per epoch (0 = off)")
		partSeed  = flag.Uint64("part-seed", 1, "partition-injector seed")
		partAfter = flag.Uint64("part-after", 0, "suppress partitions for the first N epochs")
		partMax   = flag.Uint64("part-max", 0, "cap partitions per node (0 = unlimited)")
		partLen   = flag.Int("part-len", 4, "partition duration, epochs")

		restartAfter = flag.Int("restart-after", 3, "epochs a crashed node stays down")
		suspicion    = flag.Int("suspicion", 2, "suspicion timeout: heartbeats missed before condemnation")
		backoffBase  = flag.Int("backoff-base", 1, "first re-placement retry delay, epochs")
		backoffCap   = flag.Int("backoff-cap", 8, "re-placement backoff cap, epochs")
		retryBudget  = flag.Int("retry-budget", 16, "placement attempts before a container is lost")

		loadShape     = flag.String("load-shape", "off", "open-loop offered load: off, const, ramp, diurnal, flash or trace")
		loadRPS       = flag.Float64("load-rps", 8, "offered requests per epoch across the fleet (base rate of const, ramp, diurnal and flash)")
		loadPeak      = flag.Float64("load-peak", 0, "peak requests per epoch for ramp, diurnal and flash (0 = 4x -load-rps)")
		loadTraceF    = flag.String("load-trace", "", "replay an epoch,container,requests CSV as the arrival stream (with -load-shape trace)")
		queueCap      = flag.Int("queue-cap", 64, "per-container pending-request queue bound; admissions past it are dropped")
		requeueBudget = flag.Int("requeue-budget", 64, "queue re-entries before a container is declared lost")

		maxPerNode    = flag.Int("max-per-node", 8, "per-node container cap")
		minFree       = flag.Float64("min-free", 0.04, "admission watermark: min free-frame fraction")
		shedFree      = flag.Float64("shed-free", 0.02, "shed watermark: degrade and shed below this free fraction")
		degradeEpochs = flag.Int("degrade-epochs", 2, "epochs a degraded node keeps admissions closed")

		jobs       = flag.Int("jobs", 0, "worker pool width for the per-epoch node stepping (default GOMAXPROCS); output is identical at any width")
		coreShards = flag.Int("core-shards", 0, "step each node machine's cores on up to N goroutines with a deterministic quantum barrier (0 = classic serial); output is identical at any width >= 1")
		audit      = flag.Bool("audit", false, "run the fleet invariant auditor after each run; exit non-zero on violations")
		eventsN    = flag.Int("events", 0, "print the last N audit-log events of each run")
		nodeTel    = flag.Bool("node-telemetry", false, "enable per-node machine histograms (merged fleet-wide translation latency)")

		traceOut    = flag.String("trace-out", "", "export causal spans and trace events after the run (Chrome trace JSON; .jsonl for compact JSONL)")
		seriesOut   = flag.String("series-out", "", "stream a per-epoch time series of the fleet registry (.prom for Prometheus text, JSONL otherwise; single -arch only)")
		seriesEvery = flag.Int("series-every", 1, "sample the fleet registry every N epochs (with -series-out)")
		flightDir   = flag.String("flight-recorder", "", "write post-mortem bundles to this directory on condemnation, OOM-kill escalation or container loss")
		flightDepth = flag.Int("flight-depth", 0, "span-ring depth per recorder (0 = default)")
	)
	flag.Parse()

	specs := map[string]func() *workloads.AppSpec{
		"mongodb": workloads.MongoDB, "arangodb": workloads.ArangoDB,
		"httpd": workloads.HTTPd, "graphchi": workloads.GraphChi, "fio": workloads.FIO,
	}
	mkSpec, ok := specs[*app]
	if !ok {
		usageErr("unknown app %q (want mongodb, arangodb, httpd, graphchi or fio)", *app)
	}

	// -arch values come from the xlatpolicy registry; "both" keeps its
	// historical meaning of the paper's head-to-head pair.
	var names []string
	switch {
	case *arch == "both":
		names = []string{"baseline", "babelfish"}
	default:
		if _, ok := xlatpolicy.Get(*arch); !ok {
			usageErr("unknown arch %q (want %s)", *arch, xlatpolicy.UsageList("both"))
		}
		names = []string{*arch}
	}

	// Flag consistency: catch nonsense before spending minutes simulating.
	if *nodes < 1 {
		usageErr("-nodes must be at least 1")
	}
	if *cores < 1 {
		usageErr("-cores must be at least 1")
	}
	if *memMB < 8 {
		usageErr("-mem-mb must be at least 8")
	}
	if *scale <= 0 || math.IsNaN(*scale) || math.IsInf(*scale, 0) {
		usageErr("-scale must be a positive number")
	}
	if *containers < 0 {
		usageErr("-containers must be non-negative")
	}
	if *epochs < 1 || *epochInstr < 1 {
		usageErr("-epochs and -epoch-instr must be at least 1")
	}
	if *eventsN < 0 {
		usageErr("-events must be non-negative")
	}
	if *coreShards < 0 {
		usageErr("-core-shards must be non-negative (0 = classic serial stepping)")
	}
	for _, p := range []struct {
		name string
		v    float64
	}{{"kill-prob", *killProb}, {"part-prob", *partProb}} {
		if p.v < 0 || p.v >= 1 || math.IsNaN(p.v) {
			usageErr("-%s must be in [0, 1)", p.name)
		}
	}
	if *seriesOut != "" {
		if len(names) > 1 {
			usageErr("-series-out needs a single architecture (pick one -arch value, not both)")
		}
		if *seriesEvery < 1 {
			usageErr("-series-every must be at least 1")
		}
	}
	if *flightDepth < 0 {
		usageErr("-flight-depth must be non-negative")
	}
	switch *loadShape {
	case "off", "const", "ramp", "diurnal", "flash", "trace":
	default:
		usageErr("unknown load shape %q (want off, const, ramp, diurnal, flash or trace)", *loadShape)
	}
	if *loadShape != "off" && *loadShape != "trace" {
		if *loadRPS <= 0 || math.IsNaN(*loadRPS) || math.IsInf(*loadRPS, 0) {
			usageErr("-load-rps must be a positive number")
		}
		if *loadPeak < 0 || math.IsNaN(*loadPeak) || math.IsInf(*loadPeak, 0) {
			usageErr("-load-peak must be a non-negative number (0 = 4x -load-rps)")
		}
	}
	if *loadShape == "trace" && *loadTraceF == "" {
		usageErr("-load-shape trace requires -load-trace FILE")
	}
	if *requeueBudget < 1 {
		usageErr("-requeue-budget must be at least 1")
	}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "jobs":
			if *jobs <= 0 {
				usageErr("-jobs must be positive (omit the flag for GOMAXPROCS)")
			}
		case "kill-seed", "kill-after", "kill-max":
			if *killNth == 0 && *killProb == 0 {
				usageErr("-%s has no effect without -kill-nth or -kill-prob", f.Name)
			}
		case "part-seed", "part-after", "part-max", "part-len":
			if *partNth == 0 && *partProb == 0 {
				usageErr("-%s has no effect without -part-nth or -part-prob", f.Name)
			}
		case "series-every":
			if *seriesOut == "" {
				usageErr("-series-every has no effect without -series-out")
			}
		case "flight-depth":
			if *traceOut == "" && *flightDir == "" {
				usageErr("-flight-depth has no effect without -trace-out or -flight-recorder")
			}
		case "load-rps":
			if *loadShape == "off" || *loadShape == "trace" {
				usageErr("-load-rps has no effect with -load-shape %s", *loadShape)
			}
		case "load-peak":
			if *loadShape == "off" || *loadShape == "const" || *loadShape == "trace" {
				usageErr("-load-peak has no effect with -load-shape %s", *loadShape)
			}
		case "load-trace":
			if *loadShape != "trace" {
				usageErr("-load-trace has no effect without -load-shape trace")
			}
		case "queue-cap":
			if *loadShape == "off" {
				usageErr("-queue-cap has no effect without -load-shape")
			}
		}
	})

	// The arrival source is built once and shared by every run of the
	// loop below: Split resets itself whenever a run rewinds to epoch 0
	// and a Trace is stateless, so -arch both replays the identical
	// arrival stream against both architectures.
	var loadSrc loadgen.Source
	if *loadShape != "off" {
		peak := *loadPeak
		if peak == 0 {
			peak = 4 * *loadRPS
		}
		var shape loadgen.Shape
		switch *loadShape {
		case "const":
			shape = loadgen.Constant{RPS: *loadRPS}
		case "ramp":
			shape = loadgen.Ramp{Base: *loadRPS, Peak: peak, Epochs: *epochs}
		case "diurnal":
			shape = loadgen.Diurnal{Base: *loadRPS, Peak: peak, Period: *epochs}
		case "flash":
			start := *epochs / 3
			length := *epochs / 8
			if length < 1 {
				length = 1
			}
			shape = loadgen.Flash{Base: *loadRPS, Peak: peak, Start: start, Len: length}
		case "trace":
			tr, err := loadgen.LoadTrace(*loadTraceF)
			if err != nil {
				usageErr("%v", err)
			}
			if mc := tr.MaxContainer(); mc >= *containers {
				usageErr("-load-trace references container %d but the fleet has only %d (-containers)", mc, *containers)
			}
			loadSrc = tr
		}
		if shape != nil {
			loadSrc = loadgen.Split(shape, *containers, *seed)
		}
	}

	buildConfig := func(name string) fleet.Config {
		p, err := sim.ParamsForArch(name)
		if err != nil {
			panic(err) // names are validated at flag parsing
		}
		p.Cores = *cores
		p.MemBytes = *memMB << 20
		p.CoreShards = *coreShards
		cfg := fleet.DefaultConfig(p, mkSpec())
		cfg.Nodes = *nodes
		cfg.Scale = *scale
		cfg.Seed = *seed
		cfg.Containers = *containers
		cfg.Epochs = *epochs
		cfg.EpochInstr = *epochInstr
		cfg.SuspicionEpochs = *suspicion
		cfg.Crash = memsys.InjectConfig{
			Seed: *killSeed, Nth: *killNth, Prob: *killProb, After: *killAfter, MaxFaults: *killMax,
		}
		cfg.Partition = memsys.InjectConfig{
			Seed: *partSeed, Nth: *partNth, Prob: *partProb, After: *partAfter, MaxFaults: *partMax,
		}
		cfg.RestartEpochs = *restartAfter
		cfg.PartitionEpochs = *partLen
		cfg.BackoffBase = *backoffBase
		cfg.BackoffCap = *backoffCap
		cfg.RetryBudget = *retryBudget
		cfg.MaxPerNode = *maxPerNode
		cfg.MinFreeFrac = *minFree
		cfg.ShedFrac = *shedFree
		cfg.DegradeEpochs = *degradeEpochs
		cfg.Load = loadSrc
		cfg.QueueCap = *queueCap
		cfg.RequeueBudget = *requeueBudget
		cfg.NodeTelemetry = *nodeTel
		cfg.Jobs = *jobs
		cfg.Obs = obs.Options{Enabled: *traceOut != "", Depth: *flightDepth, FlightDir: *flightDir}
		return cfg
	}
	// Validate once up front so a config mistake is a usage error, not a
	// mid-run failure.
	if err := buildConfig(names[0]).Validate(); err != nil {
		usageErr("%v", err)
	}

	t := metrics.NewTable(
		fmt.Sprintf("fleet: %d nodes, %d containers, %s scale %.2f, %d epochs",
			*nodes, *containers, *app, *scale, *epochs),
		"arch", "density", "p50Lat", "p99Lat", "placements", "sheds", "refusals", "lost")
	auditFailed := false
	var traceStreams []obs.Stream
	for i, name := range names {
		cfg := buildConfig(name)
		if *flightDir != "" && len(names) > 1 {
			// Side-by-side runs get per-architecture bundle directories so
			// their deterministic labels (epoch + trigger) never collide.
			cfg.Obs.FlightDir = filepath.Join(*flightDir, names[i])
		}
		c, err := fleet.New(cfg)
		if err != nil {
			return fail(err)
		}
		var seriesFile *os.File
		if *seriesOut != "" {
			sampler := c.EnableSeries(uint64(*seriesEvery))
			sink, f, err := telemetry.FileSink(*seriesOut, "bffleet")
			if err != nil {
				return fail(err)
			}
			seriesFile = f
			if err := sampler.SetSink(sink); err != nil {
				f.Close()
				return fail(err)
			}
		}
		if err := c.Run(); err != nil {
			return fail(err)
		}
		if seriesFile != nil {
			err := c.Sampler().FlushSink()
			if cerr := seriesFile.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return fail(err)
			}
		}
		if *traceOut != "" {
			ss := c.ObsStreams()
			if len(names) > 1 {
				for j := range ss {
					ss[j].Name = names[i] + "/" + ss[j].Name
				}
			}
			traceStreams = append(traceStreams, ss...)
		}
		if *flightDir != "" && c.FlightBundles() > 0 {
			fmt.Printf("%s: %d flight-recorder bundle(s) written under %s\n",
				names[i], c.FlightBundles(), cfg.Obs.FlightDir)
		}
		fmt.Print(c.Report())
		if *eventsN > 0 {
			evs := c.Events()
			lo := len(evs) - *eventsN
			if lo < 0 {
				lo = 0
			}
			fmt.Printf("--- %s: last %d fleet events ---\n", names[i], len(evs)-lo)
			for _, e := range evs[lo:] {
				fmt.Println(e)
			}
		}
		if *audit {
			rep := c.Audit()
			fmt.Printf("%s %s\n", names[i], rep)
			if !rep.OK() {
				auditFailed = true
			}
		}
		val := func(name string) uint64 {
			v, _ := c.Registry().Value(name)
			return uint64(v)
		}
		reqLat, _ := c.Registry().Hist("fleet.req_latency")
		t.Row(names[i], c.Density(), reqLat.Quantile(0.50), reqLat.Quantile(0.99),
			val("fleet.placements"), val("fleet.sheds"), val("fleet.place_fails"), val("fleet.lost"))
		if i < len(names)-1 {
			fmt.Println()
		}
	}
	fmt.Println(t)
	if *traceOut != "" {
		if err := obs.WriteTraceFile(*traceOut, "bffleet", traceStreams); err != nil {
			return fail(err)
		}
		fmt.Printf("trace (schema v%d) written to %s\n", obs.TraceSchemaVersion, *traceOut)
	}
	if auditFailed {
		fmt.Fprintln(os.Stderr, "bffleet: audit found invariant violations")
		return 1
	}
	return 0
}

// fail reports a runtime error and selects the non-zero exit status.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bffleet:", err)
	return 1
}

// usageErr reports a flag mistake with the full usage text and exits
// with status 2, mirroring the flag package's own error convention.
func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bffleet: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}
