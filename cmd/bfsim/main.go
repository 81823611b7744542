// Command bfsim runs one containerized workload on the simulator and
// prints a detailed report: request latency, L2 TLB behaviour, page-walk
// destinations, fault counts and kernel statistics — for one architecture
// or side-by-side for baseline and BabelFish.
//
// Usage:
//
//	bfsim [-app mongodb|arangodb|httpd|graphchi|fio] [-arch NAME|both]
//	      [-cores N] [-containers N] [-scale F] [-warm N] [-measure N] [-seed N]
//	      [-audit] [-failnth N] [-failseed N] [-jobs N] [-cpuprofile FILE]
//	      [-core-shards N]
//	      [-metrics-out FILE] [-sample-every N] [-trace N]
//	      [-trace-out FILE] [-series-out FILE] [-flight-recorder DIR] [-flight-depth N]
//	      [-inject-mem tlb,pwc,cache,dram|all] [-inject-mem-nth N] [-inject-mem-prob P]
//	      [-inject-mem-seed N] [-inject-mem-after N] [-inject-mem-max N]
//	      [-inject-mem-mode drop|poison]
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
// -core-shards N steps each machine's cores on up to N goroutines with a deterministic quantum
// barrier; the report is identical at any width >= 1. (Sharded stepping
// yields to the classic serial scheduler while -trace, telemetry or span
// recording is active, so those flags compose without surprises.)
//
// -jobs N simulates the architectures of -arch both on N workers (0 =
// GOMAXPROCS). Each run owns its machine, so the results and the printed
// report are identical at any width: output is buffered per architecture
// and replayed in order. -cpuprofile FILE writes a pprof CPU profile of
// the whole run.
//
// -metrics-out FILE writes a versioned JSON run report: the run config,
// the full telemetry registry and latency histograms for each simulated
// architecture, and — with -sample-every N — a time series sampled every
// N simulated cycles of the measured phase.
//
// The -trace family: -trace N keeps a bounded ring of raw translation
// events and dumps the last N as text; -trace-out FILE exports the
// run's causal spans (scheduling quanta and the faults inside them,
// plus the ring's events when -trace is also set) as Chrome trace-event
// JSON for Perfetto — or compact JSONL when FILE ends in .jsonl — with
// one stream per architecture, in declaration order. -series-out FILE
// streams the registry time series while the run is live (requires
// -sample-every; .prom selects Prometheus text, JSONL otherwise;
// single -arch only). -flight-recorder DIR writes a post-mortem bundle
// (trace.json, trace.jsonl, metrics.prom, audit.txt) after any run
// that OOM-killed a task or failed the -audit; -flight-depth N sizes
// the span ring (default 4096). All obs files are deterministic: the
// same flags rewrite byte-identical bytes, and leaving them off leaves
// the simulation untouched.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"

	"babelfish"
	"babelfish/internal/faultinject"
	"babelfish/internal/memsys"
	"babelfish/internal/metrics"
	"babelfish/internal/obs"
	"babelfish/internal/physmem"
	"babelfish/internal/telemetry"
)

func main() { os.Exit(run()) }

// archResult is one architecture's finished run: its table row, its
// buffered prints (replayed in declaration order so -jobs never reorders
// output), and its telemetry section.
type archResult struct {
	name        string
	out         bytes.Buffer
	row         []interface{}
	tel         telemetry.ArchReport
	stream      obs.Stream
	auditFailed bool
	err         error
}

func run() int {
	var (
		app         = flag.String("app", "mongodb", "workload: mongodb, arangodb, httpd, graphchi, fio")
		arch        = flag.String("arch", "both", "architecture: "+babelfish.ArchUsage("both"))
		cores       = flag.Int("cores", 2, "number of cores")
		containers  = flag.Int("containers", 2, "containers per core")
		scale       = flag.Float64("scale", 0.5, "dataset scale factor")
		warm        = flag.Uint64("warm", 500_000, "warm-up instructions per core")
		measure     = flag.Uint64("measure", 1_000_000, "measured instructions per core")
		seed        = flag.Uint64("seed", 42, "random seed")
		traceN      = flag.Int("trace", 0, "dump the last N translation events of each run")
		audit       = flag.Bool("audit", false, "run the kernel invariant auditor (page tables + TLBs) after each run; exit non-zero on violations")
		failNth     = flag.Uint64("failnth", 0, "fail every Nth frame allocation during the measured run (0 = off)")
		failSeed    = flag.Uint64("failseed", 1, "fault-injector seed")
		jobs        = flag.Int("jobs", 0, "run architectures on N parallel workers (default GOMAXPROCS, 1 = serial); output is identical at any width")
		coreShards  = flag.Int("core-shards", 0, "step each machine's cores on up to N goroutines with a deterministic quantum barrier (0 = classic serial); output is identical at any width >= 1")
		cpuprofile  = flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
		metricsOut  = flag.String("metrics-out", "", "write a JSON telemetry report to this file")
		sampleEvery = flag.Uint64("sample-every", 0, "sample the metric registry every N simulated cycles (requires -metrics-out or -series-out)")

		traceOut    = flag.String("trace-out", "", "export causal spans (and -trace ring events) after the run (Chrome trace JSON; .jsonl for compact JSONL)")
		seriesOut   = flag.String("series-out", "", "stream the registry time series (.prom for Prometheus text, JSONL otherwise; requires -sample-every, single -arch)")
		flightDir   = flag.String("flight-recorder", "", "write a post-mortem bundle to this directory when a run OOM-kills a task or fails -audit")
		flightDepth = flag.Int("flight-depth", 0, "span-ring depth per architecture (0 = default)")

		injectMem      = flag.String("inject-mem", "", "inject memory-system faults at these seams (comma-separated: tlb, pwc, cache, dram, all)")
		injectMemNth   = flag.Uint64("inject-mem-nth", 0, "inject on every Nth device event (0 = off)")
		injectMemProb  = flag.Float64("inject-mem-prob", 0, "inject each device event with this probability (0 = off)")
		injectMemSeed  = flag.Uint64("inject-mem-seed", 1, "memory-fault injector seed")
		injectMemAfter = flag.Uint64("inject-mem-after", 0, "suppress injection for the first N device events")
		injectMemMax   = flag.Uint64("inject-mem-max", 0, "cap total injected faults per seam (0 = unlimited)")
		injectMemMode  = flag.String("inject-mem-mode", "drop", "what an injected fault does: drop (absorbed) or poison (TLB only; caught by -audit)")
	)
	flag.Parse()

	apps := map[string]babelfish.App{
		"mongodb": babelfish.MongoDB, "arangodb": babelfish.ArangoDB,
		"httpd": babelfish.HTTPd, "graphchi": babelfish.GraphChi, "fio": babelfish.FIO,
	}
	a, ok := apps[*app]
	if !ok {
		usageErr("unknown app %q (want mongodb, arangodb, httpd, graphchi or fio)", *app)
	}

	// -arch values come from the xlatpolicy registry; "both" keeps its
	// historical meaning of the paper's head-to-head pair.
	var archs []string
	switch {
	case *arch == "both":
		archs = []string{"baseline", "babelfish"}
	case babelfish.ValidArch(*arch):
		archs = []string{*arch}
	default:
		usageErr("unknown arch %q (want %s)", *arch, babelfish.ArchUsage("both"))
	}

	// Flag consistency: catch silently-ignored or nonsensical combinations
	// before spending minutes simulating.
	if *cores < 1 || *containers < 1 {
		usageErr("-cores and -containers must be at least 1")
	}
	if *scale <= 0 {
		usageErr("-scale must be positive")
	}
	if *measure == 0 {
		usageErr("-measure must be non-zero (nothing would be simulated)")
	}
	if *traceN < 0 {
		usageErr("-trace must be non-negative")
	}
	if *coreShards < 0 {
		usageErr("-core-shards must be non-negative (0 = classic serial stepping)")
	}
	if *sampleEvery > 0 && *metricsOut == "" && *seriesOut == "" {
		usageErr("-sample-every requires -metrics-out or -series-out (the time series needs somewhere to go)")
	}
	if *seriesOut != "" {
		if *sampleEvery == 0 {
			usageErr("-series-out requires -sample-every (it streams the sampled series)")
		}
		if len(archs) > 1 {
			usageErr("-series-out needs a single architecture (pick one -arch value, not both)")
		}
	}
	if *flightDepth < 0 {
		usageErr("-flight-depth must be non-negative")
	}
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "jobs" && *jobs <= 0 {
			usageErr("-jobs must be positive (omit the flag for GOMAXPROCS)")
		}
		if f.Name == "failseed" && *failNth == 0 {
			usageErr("-failseed has no effect without -failnth")
		}
		if f.Name == "flight-depth" && *traceOut == "" && *flightDir == "" {
			usageErr("-flight-depth has no effect without -trace-out or -flight-recorder")
		}
		if strings.HasPrefix(f.Name, "inject-mem-") && *injectMem == "" {
			usageErr("-%s has no effect without -inject-mem", f.Name)
		}
	})
	var memTargets memsys.Target
	var memCfg memsys.InjectConfig
	if *injectMem != "" {
		var err error
		if memTargets, err = memsys.ParseTargets(*injectMem); err != nil {
			usageErr("%v", err)
		}
		if *injectMemNth == 0 && *injectMemProb == 0 {
			usageErr("-inject-mem needs a policy: set -inject-mem-nth and/or -inject-mem-prob")
		}
		if *injectMemProb < 0 || *injectMemProb >= 1 || math.IsNaN(*injectMemProb) {
			usageErr("-inject-mem-prob must be in [0, 1)")
		}
		mode := memsys.ModeDrop
		switch *injectMemMode {
		case "drop":
		case "poison":
			mode = memsys.ModePoison
			if memTargets != memsys.TargetTLB {
				usageErr("-inject-mem-mode poison only applies to the tlb target (got %q)", *injectMem)
			}
		default:
			usageErr("unknown -inject-mem-mode %q (want drop or poison)", *injectMemMode)
		}
		memCfg = memsys.InjectConfig{
			Seed: *injectMemSeed, Nth: *injectMemNth, Prob: *injectMemProb,
			After: *injectMemAfter, MaxFaults: *injectMemMax, Mode: mode,
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(err)
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

	obsOn := *traceOut != "" || *flightDir != ""
	runArch := func(res *archResult, idx int, name string) {
		res.name = name
		m, err := babelfish.NewMachineArch(name, babelfish.Options{
			Cores:      *cores,
			CoreShards: *coreShards,
		})
		if err != nil {
			res.err = err
			return
		}
		if *traceN > 0 {
			m.EnableTracing(*traceN)
		}
		if rep != nil || *seriesOut != "" {
			m.EnableTelemetry(*sampleEvery)
		}
		if obsOn {
			// Span IDs are pure in (seed, arch index, sequence), so the
			// export is byte-identical at any -jobs width.
			rec := obs.NewRecorder(*seed, uint64(idx), obs.Options{Depth: *flightDepth}.RingDepth())
			m.EnableObs(rec, idx)
		}
		var seriesFile *os.File
		if *seriesOut != "" {
			sink, f, err := telemetry.FileSink(*seriesOut, "bfsim")
			if err != nil {
				res.err = err
				return
			}
			seriesFile = f
			if err := m.Sampler().SetSink(sink); err != nil {
				f.Close()
				res.err = err
				return
			}
			defer func() {
				err := m.Sampler().FlushSink()
				if cerr := seriesFile.Close(); err == nil {
					err = cerr
				}
				if err != nil && res.err == nil {
					res.err = err
				}
			}()
		}
		d, err := babelfish.DeployApp(m, a, *scale, *seed)
		if err != nil {
			res.err = err
			return
		}
		for c := 0; c < *cores; c++ {
			for j := 0; j < *containers; j++ {
				if _, _, err := d.Spawn(c, *seed+uint64(c*131+j)); err != nil {
					res.err = err
					return
				}
			}
		}
		// Under injection the prefault is expected to hit OOM part-way:
		// the remaining pages fault in during the run, under pressure.
		if *failNth > 0 {
			m.Mem.SetInjector(faultinject.New(faultinject.Config{Seed: *failSeed, Nth: *failNth}))
		}
		if err := d.PrefaultAll(); err != nil {
			if *failNth == 0 || !errors.Is(err, physmem.ErrOutOfMemory) {
				res.err = err
				return
			}
		}
		if memTargets != 0 {
			m.SetMemInjector(memTargets, memCfg)
		}
		if err := m.Run(*warm); err != nil {
			res.err = err
			return
		}
		m.ResetStats()
		if err := m.Run(*measure); err != nil {
			res.err = err
			return
		}
		m.Mem.SetInjector(nil)
		ag := m.Aggregate()
		ks := m.Kernel.Stats()
		res.row = []interface{}{name, d.MeanLatency(), d.TailLatency(95), ag.MPKIData(), ag.MPKIInstr(),
			ag.SharedHitFracD(), ag.SharedHitFracI(), ag.Faults, ks.MinorFaults, ks.CoWFaults}
		c, err := m.Counters()
		if err != nil {
			res.err = err
			return
		}
		if c.Any() || *audit {
			fmt.Fprintf(&res.out, "%s robustness: %s\n", name, c)
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
		if m.Tracer != nil {
			fmt.Fprintf(&res.out, "--- %s: last %d translation events ---\n", name, *traceN)
			m.Tracer.Dump(&res.out, *traceN)
			fmt.Fprint(&res.out, m.Tracer.Summarize())
		}
		if rep != nil {
			res.tel = m.TelemetryReport(name)
		}
		if obsOn {
			res.stream = m.ObsStream(name)
		}
		if *flightDir != "" && (m.OOMKills() > 0 || res.auditFailed) {
			trigger := "oom-kill"
			if res.auditFailed {
				trigger = "audit-violation"
			}
			var prom bytes.Buffer
			if err := telemetry.WriteProm(&prom, m.Registry); err != nil {
				res.err = err
				return
			}
			path, err := obs.WriteBundle(*flightDir, obs.Bundle{
				Label: name + "-" + trigger, Tool: "bfsim", Trigger: trigger,
				Streams:     []obs.Stream{res.stream},
				MetricsProm: prom.Bytes(),
				Audit: fmt.Sprintf("oomKills: %d\nauditFailed: %v\n\n%s",
					m.OOMKills(), res.auditFailed, res.out.String()),
			})
			if err != nil {
				res.err = err
				return
			}
			fmt.Fprintf(&res.out, "%s: flight-recorder bundle written to %s\n", name, path)
		}
	}

	// Each architecture run owns its machine; runs only share the
	// seed-keyed workload graph cache and atomic bug counters, so they can
	// execute concurrently and still be deterministic.
	width := *jobs
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	results := make([]archResult, len(archs))
	sem := make(chan struct{}, width)
	var wg sync.WaitGroup
	for i := range archs {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			runArch(&results[i], i, archs[i])
		}(i)
	}
	wg.Wait()

	auditFailed := false
	t := metrics.NewTable(fmt.Sprintf("%s: %d cores x %d containers, scale %.2f", *app, *cores, *containers, *scale),
		"arch", "meanLat", "p95Lat", "mpkiD", "mpkiI", "sharedD", "sharedI", "faults", "minor", "cow")
	for i := range results {
		res := &results[i]
		if res.err != nil {
			return fail(res.err)
		}
		os.Stdout.Write(res.out.Bytes())
		t.Row(res.row...)
		if rep != nil {
			rep.AddArch(res.tel)
		}
		auditFailed = auditFailed || res.auditFailed
	}
	fmt.Println(t)
	if rep != nil {
		if err := rep.WriteFile(*metricsOut); err != nil {
			return fail(err)
		}
		fmt.Printf("telemetry report (schema v%d) written to %s\n", telemetry.SchemaVersion, *metricsOut)
	}
	if *traceOut != "" {
		streams := make([]obs.Stream, len(results))
		for i := range results {
			streams[i] = results[i].stream
		}
		if err := obs.WriteTraceFile(*traceOut, "bfsim", streams); err != nil {
			return fail(err)
		}
		fmt.Printf("trace (schema v%d) written to %s\n", obs.TraceSchemaVersion, *traceOut)
	}
	if auditFailed {
		fmt.Fprintln(os.Stderr, "bfsim: audit found invariant violations")
		return 1
	}
	return 0
}

// fail reports a runtime error and selects the non-zero exit status; the
// caller returns it from run so deferred cleanup (the CPU profile) still
// flushes.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bfsim:", err)
	return 1
}

// usageErr reports a flag mistake with the full usage text and exits
// non-zero, mirroring the flag package's own error convention.
func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bfsim: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}
