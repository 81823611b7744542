// Command bfsim runs one containerized workload on the simulator and
// prints a detailed report: request latency, L2 TLB behaviour, page-walk
// destinations, fault counts and kernel statistics — for one architecture
// or side-by-side for baseline and BabelFish.
//
// Usage:
//
//	bfsim [-app mongodb|arangodb|httpd|graphchi|fio] [-arch NAME|both]
//	      [-cores N] [-containers N] [-scale F] [-warm N] [-measure N] [-seed N]
//	      [-audit] [-failnth N] [-failseed N] [-cpuprofile FILE]
//	      [-metrics-out FILE] [-sample-every N] [-series-out FILE]
//	      [-inject-mem tlb,pwc,cache,dram|all] [-inject-mem-nth N] [-inject-mem-prob P]
//	      [-inject-mem-seed N] [-inject-mem-after N] [-inject-mem-max N]
//	      [-inject-mem-mode drop|poison]
//	      [shared flags: -jobs -core-shards -trace-out -flight-recorder -flight-depth]
//
// The shared flags are documented in package internal/cli. With -arch
// both, -jobs runs the two architectures in parallel; -trace-out writes
// one stream per architecture (scheduling quanta, the faults inside them
// and OOM kills); -flight-recorder writes a bundle after any run that
// OOM-killed a task or failed -audit.
//
// -audit cross-checks the allocator's refcounts against the kernel's page
// tables — and every valid TLB entry against a live PTE — after each run
// and exits non-zero on any violation. -failnth N installs a deterministic
// fault injector that fails every Nth frame allocation from prefault
// onwards (memory-pressure chaos; pair it with -audit to verify the
// kernel absorbed the failures cleanly).
//
// -inject-mem installs deterministic fault injectors at the named
// memory-system seams (comma-separated: tlb, pwc, cache, dram, or all)
// for the warm and measured phases. The policy comes from the
// -inject-mem-* flags: every Nth device event, or each event with
// probability P, starting after the first -inject-mem-after events and
// capped at -inject-mem-max faults (0 = unlimited). The default mode,
// drop, discards the faulted lookup/line so the machine re-derives it —
// always absorbed, so it composes with -audit. Mode poison (TLB target
// only) corrupts the hit entry's identity tags in place instead; pair it
// with -audit to watch the TLB audit catch the corruption (the run then
// deliberately exits non-zero).
//
// -cpuprofile FILE writes a pprof CPU profile of the whole run.
//
// -metrics-out FILE writes a versioned JSON run report: the run config,
// the full telemetry registry and latency histograms for each simulated
// architecture, and — with -sample-every N — a time series sampled every
// N simulated cycles of the measured phase. -series-out FILE streams the
// registry time series while the run is live (requires -sample-every;
// .prom selects Prometheus text, JSONL otherwise; single -arch only).
package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime/pprof"

	"babelfish"
	"babelfish/internal/cli"
	"babelfish/internal/memsys"
	"babelfish/internal/metrics"
	"babelfish/internal/obs"
	"babelfish/internal/par"
	"babelfish/internal/physmem"
	"babelfish/internal/telemetry"
	"babelfish/internal/workloads"
	"babelfish/internal/xlatpolicy"
)

func main() { os.Exit(run(os.Args[1:])) }

// archResult is one architecture's finished run: its table row, its
// buffered prints (replayed in declaration order so -jobs never reorders
// output), and its telemetry section.
type archResult struct {
	out         bytes.Buffer
	row         []interface{}
	tel         telemetry.ArchReport
	stream      obs.Stream
	auditFailed bool
}

func run(args []string) int {
	c := cli.New("bfsim", true)
	var (
		app         = c.String("app", "mongodb", "workload: mongodb, arangodb, httpd, graphchi, fio")
		arch        = c.String("arch", "both", "architecture: "+xlatpolicy.UsageList("both"))
		cores       = c.Int("cores", 2, "number of cores")
		containers  = c.Int("containers", 2, "containers per core")
		scale       = c.Float64("scale", 0.5, "dataset scale factor")
		warm        = c.Uint64("warm", 500_000, "warm-up instructions per core")
		measure     = c.Uint64("measure", 1_000_000, "measured instructions per core")
		seed        = c.Uint64("seed", 42, "random seed")
		audit       = c.Bool("audit", false, "run the kernel invariant auditor (page tables + TLBs) after each run; exit non-zero on violations")
		failNth     = c.Uint64("failnth", 0, "fail every Nth frame allocation during the measured run (0 = off)")
		failSeed    = c.Uint64("failseed", 1, "fault-injector seed")
		cpuprofile  = c.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
		metricsOut  = c.String("metrics-out", "", "write a JSON telemetry report to this file")
		sampleEvery = c.Uint64("sample-every", 0, "sample the metric registry every N simulated cycles (requires -metrics-out or -series-out)")
		seriesOut   = c.String("series-out", "", "stream the registry time series (.prom for Prometheus text, JSONL otherwise; requires -sample-every, single -arch)")

		injectMem      = c.String("inject-mem", "", "inject memory-system faults at these seams (comma-separated: tlb, pwc, cache, dram, all)")
		injectMemNth   = c.Uint64("inject-mem-nth", 0, "inject on every Nth device event (0 = off)")
		injectMemProb  = c.Float64("inject-mem-prob", 0, "inject each device event with this probability (0 = off)")
		injectMemSeed  = c.Uint64("inject-mem-seed", 1, "memory-fault injector seed")
		injectMemAfter = c.Uint64("inject-mem-after", 0, "suppress injection for the first N device events")
		injectMemMax   = c.Uint64("inject-mem-max", 0, "cap total injected faults per seam (0 = unlimited)")
		injectMemMode  = c.String("inject-mem-mode", "drop", "what an injected fault does: drop (absorbed) or poison (TLB only; caught by -audit)")
	)
	if status, ok := c.Parse(args); !ok {
		return status
	}

	spec, err := cli.App(*app)
	if err != nil {
		return c.UsageErr("%v", err)
	}
	archs, err := cli.Arch(*arch)
	if err != nil {
		return c.UsageErr("%v", err)
	}

	// Flag consistency: catch silently-ignored or nonsensical combinations
	// before spending minutes simulating.
	if *cores < 1 || *containers < 1 {
		return c.UsageErr("-cores and -containers must be at least 1")
	}
	if err := cli.Positive("scale", *scale); err != nil {
		return c.UsageErr("%v", err)
	}
	if *measure == 0 {
		return c.UsageErr("-measure must be non-zero (nothing would be simulated)")
	}
	if *sampleEvery > 0 && *metricsOut == "" && *seriesOut == "" {
		return c.UsageErr("-sample-every requires -metrics-out or -series-out (the time series needs somewhere to go)")
	}
	if *seriesOut != "" {
		if *sampleEvery == 0 {
			return c.UsageErr("-series-out requires -sample-every (it streams the sampled series)")
		}
		if len(archs) > 1 {
			return c.UsageErr("-series-out needs a single architecture (pick one -arch value, not both)")
		}
	}
	if c.Given("failseed") && *failNth == 0 {
		return c.UsageErr("-failseed has no effect without -failnth")
	}
	var memTargets memsys.Target
	var memCfg memsys.InjectConfig
	if *injectMem == "" {
		for _, name := range []string{"after", "max", "mode", "nth", "prob", "seed"} {
			if c.Given("inject-mem-" + name) {
				return c.UsageErr("-inject-mem-%s has no effect without -inject-mem", name)
			}
		}
	} else {
		if memTargets, err = memsys.ParseTargets(*injectMem); err != nil {
			return c.UsageErr("%v", err)
		}
		if *injectMemNth == 0 && *injectMemProb == 0 {
			return c.UsageErr("-inject-mem needs a policy: set -inject-mem-nth and/or -inject-mem-prob")
		}
		if *injectMemProb < 0 || *injectMemProb >= 1 || math.IsNaN(*injectMemProb) {
			return c.UsageErr("-inject-mem-prob must be in [0, 1)")
		}
		mode := memsys.ModeDrop
		switch *injectMemMode {
		case "drop":
		case "poison":
			mode = memsys.ModePoison
			if memTargets != memsys.TargetTLB {
				return c.UsageErr("-inject-mem-mode poison only applies to the tlb target (got %q)", *injectMem)
			}
		default:
			return c.UsageErr("unknown -inject-mem-mode %q (want drop or poison)", *injectMemMode)
		}
		memCfg = memsys.InjectConfig{
			Seed: *injectMemSeed, Nth: *injectMemNth, Prob: *injectMemProb,
			After: *injectMemAfter, MaxFaults: *injectMemMax, Mode: mode,
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return c.Fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return c.Fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	var rep *telemetry.Report
	if *metricsOut != "" {
		rep = telemetry.NewReport("bfsim", map[string]string{
			"app":          *app,
			"arch":         *arch,
			"cores":        fmt.Sprint(*cores),
			"containers":   fmt.Sprint(*containers),
			"scale":        fmt.Sprint(*scale),
			"warm":         fmt.Sprint(*warm),
			"measure":      fmt.Sprint(*measure),
			"seed":         fmt.Sprint(*seed),
			"sample_every": fmt.Sprint(*sampleEvery),
			"failnth":      fmt.Sprint(*failNth),
			"failseed":     fmt.Sprint(*failSeed),
		})
	}

	obsOn := c.TraceOut != "" || c.FlightDir != ""
	runArch := func(res *archResult, idx int, name string) (err error) {
		m, err := babelfish.NewMachineArch(name, babelfish.Options{
			Cores:      *cores,
			CoreShards: c.CoreShards,
		})
		if err != nil {
			return err
		}
		if rep != nil || *seriesOut != "" {
			m.EnableTelemetry(*sampleEvery)
		}
		if obsOn {
			// Span IDs are pure in (seed, arch index, sequence), so the
			// export is byte-identical at any -jobs width.
			rec := obs.NewRecorder(*seed, uint64(idx), obs.Options{Depth: c.FlightDepth}.RingDepth())
			m.EnableObs(rec, idx)
		}
		if *seriesOut != "" {
			finish, serr := cli.StreamSeries(*seriesOut, "bfsim", m.Sampler())
			if serr != nil {
				return serr
			}
			defer func() {
				if ferr := finish(); err == nil {
					err = ferr
				}
			}()
		}
		d, err := workloads.Deploy(m.Machine, spec(), *scale, *seed)
		if err != nil {
			return err
		}
		for core := 0; core < *cores; core++ {
			for j := 0; j < *containers; j++ {
				if _, _, err := d.Spawn(core, *seed+uint64(core*131+j)); err != nil {
					return err
				}
			}
		}
		// Under injection the prefault is expected to hit OOM part-way:
		// the remaining pages fault in during the run, under pressure.
		if *failNth > 0 {
			m.Mem.SetInjector(memsys.NewInjector(memsys.InjectConfig{Seed: *failSeed, Nth: *failNth}))
		}
		if err := d.PrefaultAll(); err != nil {
			if *failNth == 0 || !errors.Is(err, physmem.ErrOutOfMemory) {
				return err
			}
		}
		if memTargets != 0 {
			m.SetMemInjector(memTargets, memCfg)
		}
		if err := m.Run(*warm); err != nil {
			return err
		}
		m.ResetStats()
		if err := m.Run(*measure); err != nil {
			return err
		}
		m.Mem.SetInjector(nil)
		ag := m.Aggregate()
		ks := m.Kernel.Stats()
		res.row = []interface{}{name, d.MeanLatency(), d.TailLatency(95), ag.MPKIData(), ag.MPKIInstr(),
			ag.SharedHitFracD(), ag.SharedHitFracI(), ag.Faults, ks.MinorFaults, ks.CoWFaults}
		cnt, err := m.Counters()
		if err != nil {
			return err
		}
		if cnt.Any() || *audit {
			fmt.Fprintf(&res.out, "%s robustness: %s\n", name, cnt)
		}
		if memTargets != 0 {
			fmt.Fprintf(&res.out, "%s mem-injection (%s, %s): %d faults injected\n",
				name, memTargets, memCfg.Mode, m.MemInjected())
		}
		if *audit {
			krep := m.Kernel.Audit()
			mrep := m.Mem.Audit()
			trep := m.AuditTLBs()
			fmt.Fprintf(&res.out, "%s %s\n%s physmem audit: %s\n", name, krep, name, mrep)
			fmt.Fprintf(&res.out, "%s TLB audit: %d entries cross-checked, %d violations\n",
				name, trep.TLBEntriesChecked, len(trep.Violations))
			for _, v := range trep.Violations {
				fmt.Fprintf(&res.out, "  - %s\n", v)
			}
			if !krep.OK() || !mrep.OK() || !trep.OK() {
				res.auditFailed = true
			}
		}
		if rep != nil {
			res.tel = m.TelemetryReport(name)
		}
		if obsOn {
			res.stream = m.ObsStream(name)
		}
		if c.FlightDir != "" && (m.OOMKills() > 0 || res.auditFailed) {
			trigger := "oom-kill"
			if res.auditFailed {
				trigger = "audit-violation"
			}
			var prom bytes.Buffer
			if err := telemetry.WriteProm(&prom, m.Registry); err != nil {
				return err
			}
			path, err := obs.WriteBundle(c.FlightDir, obs.Bundle{
				Label: name + "-" + trigger, Tool: "bfsim", Trigger: trigger,
				Streams:     []obs.Stream{res.stream},
				MetricsProm: prom.Bytes(),
				Audit: fmt.Sprintf("oomKills: %d\nauditFailed: %v\n\n%s",
					m.OOMKills(), res.auditFailed, res.out.String()),
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(&res.out, "%s: flight-recorder bundle written to %s\n", name, path)
		}
		return nil
	}

	// Each architecture run owns its machine; runs only share the
	// seed-keyed workload graph cache, the ycsb zeta memo and atomic bug
	// counters, so they can execute concurrently and still be
	// deterministic.
	results := make([]archResult, len(archs))
	var plan par.Plan
	for i, name := range archs {
		plan.Add(name, func() error { return runArch(&results[i], i, name) })
	}
	if err := plan.Execute(c.Jobs); err != nil {
		return c.Fail(err)
	}

	auditFailed := false
	t := metrics.NewTable(fmt.Sprintf("%s: %d cores x %d containers, scale %.2f", *app, *cores, *containers, *scale),
		"arch", "meanLat", "p95Lat", "mpkiD", "mpkiI", "sharedD", "sharedI", "faults", "minor", "cow")
	streams := make([]obs.Stream, len(results))
	for i := range results {
		res := &results[i]
		os.Stdout.Write(res.out.Bytes())
		t.Row(res.row...)
		if rep != nil {
			rep.AddArch(res.tel)
		}
		streams[i] = res.stream
		auditFailed = auditFailed || res.auditFailed
	}
	fmt.Println(t)
	if rep != nil {
		if err := rep.WriteFile(*metricsOut); err != nil {
			return c.Fail(err)
		}
		fmt.Printf("telemetry report (schema v%d) written to %s\n", telemetry.SchemaVersion, *metricsOut)
	}
	if c.TraceOut != "" {
		if err := cli.WriteTrace(os.Stdout, c.TraceOut, "bfsim", streams); err != nil {
			return c.Fail(err)
		}
	}
	if auditFailed {
		return c.Fail(errors.New("audit found invariant violations"))
	}
	return 0
}
