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
//	        [-audit] [-events N] [-node-telemetry] [-series-out FILE] [-series-every N]
//	        [shared flags: -jobs -core-shards -trace-out -flight-recorder -flight-depth]
//
// The shared flags are documented in package internal/cli. -jobs bounds
// the worker pool stepping node machines; -trace-out exports the fleet
// request → placement → node epoch → quantum → fault chain, with stream
// names prefixed per architecture under -arch both; -flight-recorder
// dumps a bundle of the spans retained in the bounded rings on a
// condemnation, OOM-kill escalation or container loss.
//
// The -kill-* and -part-* flags are two fault-injection groups (see
// package internal/cli) arming per-node crash and partition injectors:
// their events are epoch pulses, one per node per epoch, and -kill-max
// and -part-max cap the faults per node. -part-len needs -part-nth or
// -part-prob. Seeds are mixed and Nth phases staggered by node ID, so
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
// any violation. -events N prints the last N audit-log events.
//
// -series-out FILE streams a per-epoch time series of the fleet registry
// as JSON lines while the run is live (single -arch only); -series-every
// N widens the sampling interval to every Nth epoch.
package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"babelfish/internal/cli"
	"babelfish/internal/fleet"
	"babelfish/internal/loadgen"
	"babelfish/internal/metrics"
	"babelfish/internal/obs"
	"babelfish/internal/sim"
	"babelfish/internal/xlatpolicy"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	c := cli.New("bffleet", true)
	var (
		nodes      = c.Int("nodes", 8, "cluster size")
		cores      = c.Int("cores", 2, "cores per node")
		memMB      = c.Uint64("mem-mb", 256, "physical memory per node, MB")
		app        = c.String("app", "mongodb", "workload: "+cli.AppList(false))
		arch       = c.String("arch", "both", "architecture: "+xlatpolicy.UsageList("both"))
		scale      = c.Float64("scale", 0.25, "dataset scale factor")
		containers = c.Int("containers", 24, "containers the fleet must keep running")
		epochs     = c.Int("epochs", 24, "control-loop epochs")
		epochInstr = c.Uint64("epoch-instr", 20_000, "per-core instruction budget per epoch")
		seed       = c.Uint64("seed", 42, "random seed")

		kill    = c.Inject("kill", "node crash", "epoch pulse", "node")
		part    = c.Inject("part", "partition", "epoch pulse", "node", "part-len")
		partLen = c.Int("part-len", 4, "partition duration, epochs")

		restartAfter = c.Int("restart-after", 3, "epochs a crashed node stays down")
		suspicion    = c.Int("suspicion", 2, "suspicion timeout: heartbeats missed before condemnation")
		backoffBase  = c.Int("backoff-base", 1, "first re-placement retry delay, epochs")
		backoffCap   = c.Int("backoff-cap", 8, "re-placement backoff cap, epochs")
		retryBudget  = c.Int("retry-budget", 16, "placement attempts before a container is lost")

		loadShape     = c.String("load-shape", "off", "open-loop offered load: off, const, ramp, diurnal, flash or trace")
		loadRPS       = c.Float64("load-rps", 8, "offered requests per epoch across the fleet (base rate of const, ramp, diurnal and flash)")
		loadPeak      = c.Float64("load-peak", 0, "peak requests per epoch for ramp, diurnal and flash (0 = 4x -load-rps)")
		loadTraceF    = c.String("load-trace", "", "replay an epoch,container,requests CSV as the arrival stream (with -load-shape trace)")
		queueCap      = c.Int("queue-cap", 64, "per-container pending-request queue bound; admissions past it are dropped")
		requeueBudget = c.Int("requeue-budget", 64, "queue re-entries before a container is declared lost")

		maxPerNode    = c.Int("max-per-node", 8, "per-node container cap")
		minFree       = c.Float64("min-free", 0.04, "admission watermark: min free-frame fraction")
		shedFree      = c.Float64("shed-free", 0.02, "shed watermark: degrade and shed below this free fraction")
		degradeEpochs = c.Int("degrade-epochs", 2, "epochs a degraded node keeps admissions closed")

		audit   = c.Bool("audit", false, "run the fleet invariant auditor after each run; exit non-zero on violations")
		eventsN = c.Int("events", 0, "print the last N audit-log events of each run")
		nodeTel = c.Bool("node-telemetry", false, "enable per-node machine histograms (merged fleet-wide translation latency)")

		seriesOut   = c.String("series-out", "", "stream a per-epoch time series of the fleet registry as JSON lines (single -arch only)")
		seriesEvery = c.Int("series-every", 1, "sample the fleet registry every N epochs (with -series-out)")
	)
	if status, ok := c.Parse(args); !ok {
		return status
	}

	spec, err := cli.App(*app)
	if err != nil {
		return c.UsageErr("%v", err)
	}
	names, err := cli.Arch(*arch)
	if err != nil {
		return c.UsageErr("%v", err)
	}

	// Flag consistency: catch nonsense before spending minutes simulating.
	// The fleet's own sizes and policies are checked once, by
	// fleet.Config.Validate below.
	if *memMB < 8 {
		return c.UsageErr("-mem-mb must be at least 8")
	}
	if *eventsN < 0 {
		return c.UsageErr("-events must be non-negative")
	}
	if *seriesOut != "" {
		if len(names) > 1 {
			return c.UsageErr("-series-out needs a single architecture (pick one -arch value, not both)")
		}
		if *seriesEvery < 1 {
			return c.UsageErr("-series-every must be at least 1")
		}
	}
	switch *loadShape {
	case "off", "const", "ramp", "diurnal", "flash", "trace":
	default:
		return c.UsageErr("unknown load shape %q (want off, const, ramp, diurnal, flash or trace)", *loadShape)
	}
	if *loadShape != "off" && *loadShape != "trace" {
		if err := cli.Positive("load-rps", *loadRPS); err != nil {
			return c.UsageErr("%v", err)
		}
		if *loadPeak < 0 || math.IsNaN(*loadPeak) || math.IsInf(*loadPeak, 0) {
			return c.UsageErr("-load-peak must be a non-negative number (0 = 4x -load-rps)")
		}
	}
	if *loadShape == "trace" && *loadTraceF == "" {
		return c.UsageErr("-load-shape trace requires -load-trace FILE")
	}
	switch {
	case c.Given("series-every") && *seriesOut == "":
		return c.UsageErr("-series-every has no effect without -series-out")
	case c.Given("load-rps") && (*loadShape == "off" || *loadShape == "trace"):
		return c.UsageErr("-load-rps has no effect with -load-shape %s", *loadShape)
	case c.Given("load-peak") && (*loadShape == "off" || *loadShape == "const" || *loadShape == "trace"):
		return c.UsageErr("-load-peak has no effect with -load-shape %s", *loadShape)
	case c.Given("load-trace") && *loadShape != "trace":
		return c.UsageErr("-load-trace has no effect without -load-shape trace")
	case c.Given("queue-cap") && *loadShape == "off":
		return c.UsageErr("-queue-cap has no effect without -load-shape")
	}

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
				return c.UsageErr("%v", err)
			}
			if mc := tr.MaxContainer(); mc >= *containers {
				return c.UsageErr("-load-trace references container %d but the fleet has only %d (-containers)", mc, *containers)
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
		p.CoreShards = c.CoreShards
		cfg := fleet.DefaultConfig(p, spec)
		cfg.Nodes = *nodes
		cfg.Scale = *scale
		cfg.Seed = *seed
		cfg.Containers = *containers
		cfg.Epochs = *epochs
		cfg.EpochInstr = *epochInstr
		cfg.SuspicionEpochs = *suspicion
		cfg.Crash = kill.Config
		cfg.Partition = part.Config
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
		cfg.Jobs = c.Jobs
		cfg.Obs = obs.Options{Enabled: c.TraceOut != "", Depth: c.FlightDepth, FlightDir: c.FlightDir}
		return cfg
	}
	// Validate once up front so a config mistake is a usage error, not a
	// mid-run failure.
	if err := buildConfig(names[0]).Validate(); err != nil {
		return c.UsageErr("%v", err)
	}

	t := metrics.NewTable(
		fmt.Sprintf("fleet: %d nodes, %d containers, %s scale %.2f, %d epochs",
			*nodes, *containers, *app, *scale, *epochs),
		"arch", "density", "p50Lat", "p99Lat", "placements", "sheds", "refusals", "lost")
	auditFailed := false
	var traceStreams []obs.Stream
	for i, name := range names {
		cfg := buildConfig(name)
		if c.FlightDir != "" && len(names) > 1 {
			// Side-by-side runs get per-architecture bundle directories so
			// their deterministic labels (epoch + trigger) never collide.
			cfg.Obs.FlightDir = filepath.Join(c.FlightDir, names[i])
		}
		cl, err := fleet.New(cfg)
		if err != nil {
			return c.Fail(err)
		}
		finishSeries := func() error { return nil }
		if *seriesOut != "" {
			finishSeries, err = cli.StreamSeries(*seriesOut, "bffleet", cl.EnableSeries(uint64(*seriesEvery)))
			if err != nil {
				return c.Fail(err)
			}
		}
		if err := cl.Run(); err != nil {
			return c.Fail(err)
		}
		if err := finishSeries(); err != nil {
			return c.Fail(err)
		}
		if c.TraceOut != "" {
			ss := cl.ObsStreams()
			if len(names) > 1 {
				for j := range ss {
					ss[j].Name = names[i] + "/" + ss[j].Name
				}
			}
			traceStreams = append(traceStreams, ss...)
		}
		if c.FlightDir != "" && cl.FlightBundles() > 0 {
			fmt.Printf("%s: %d flight-recorder bundle(s) written under %s\n",
				names[i], cl.FlightBundles(), cfg.Obs.FlightDir)
		}
		fmt.Print(cl.Report())
		if *eventsN > 0 {
			evs := cl.Events()
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
			rep := cl.Audit()
			fmt.Printf("%s %s\n", names[i], rep)
			if !rep.OK() {
				auditFailed = true
			}
		}
		val := func(name string) uint64 {
			v, _ := cl.Registry().Value(name)
			return uint64(v)
		}
		reqLat, _ := cl.Registry().Hist("fleet.req_latency")
		t.Row(names[i], cl.Density(), reqLat.Quantile(0.50), reqLat.Quantile(0.99),
			val("fleet.placements"), val("fleet.sheds"), val("fleet.place_fails"), val("fleet.lost"))
		if i < len(names)-1 {
			fmt.Println()
		}
	}
	fmt.Println(t)
	if c.TraceOut != "" {
		if err := cli.WriteTrace(os.Stdout, c.TraceOut, "bffleet", traceStreams); err != nil {
			return c.Fail(err)
		}
	}
	if auditFailed {
		return c.Fail(errors.New("audit found invariant violations"))
	}
	return 0
}
