// Command bfbench regenerates the tables and figures of the BabelFish
// paper's evaluation (Section VII) on the simulator.
//
// Usage:
//
//	bfbench [-exp all|tableI|fig9|fig10a|fig10b|fig11|tableII|tableIII|largertlb|bringup|resources|archcompare|loadramp]
//	        [-arch NAME,NAME,...] [-cores N] [-scale F] [-warm N] [-measure N] [-seed N] [-quick]
//	        [-trace-out FILE] [-flight-depth N]
//
// -exp archcompare runs the architecture head-to-head sweep: every
// workload measured under each requested translation policy (-arch, a
// comma-separated list of registered architecture names; empty sweeps
// them all). -exp loadramp sweeps a small fleet across open-loop
// offered-load levels per architecture (-arch again; empty means the
// baseline/BabelFish pair). Both are opt-in only — never part of
// -exp all or the json/markdown suite, whose output is pinned by the
// identity CI job.
//
// Each experiment prints rows shaped like the paper's; the headers quote
// the paper's numbers for comparison.
//
// -trace-out FILE exports one span per executed experiment cell
// (architecture × app × config) after the run — Chrome trace-event JSON
// for Perfetto, or compact JSONL when FILE ends in .jsonl — showing how
// each experiment decomposed into its plan; -flight-depth N sizes the
// span ring.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"babelfish/internal/experiments"
	"babelfish/internal/obs"
	"babelfish/internal/xlatpolicy"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id (all, tableI, fig9, fig10a, fig10b, fig11, tableII, tableIII, largertlb, bringup, resources, sweeps, fig7, archcompare, loadramp)")
		archs   = flag.String("arch", "", "architectures for -exp archcompare or loadramp, comma-separated from "+xlatpolicy.UsageList()+" (empty = all registered / the baseline-babelfish pair)")
		cores   = flag.Int("cores", 0, "number of cores (0 = default 8)")
		scale   = flag.Float64("scale", 0, "dataset scale factor (0 = default 1.0)")
		warm    = flag.Uint64("warm", 0, "warm-up instructions per core (0 = default)")
		measure = flag.Uint64("measure", 0, "measured instructions per core (0 = default)")
		seed    = flag.Uint64("seed", 0, "random seed (0 = default)")
		quick   = flag.Bool("quick", false, "use the reduced smoke-test options")
		format  = flag.String("format", "text", "output format: text, json or markdown (json/markdown run all experiments)")
		jobs    = flag.Int("jobs", 0, "parallel experiment cells (default GOMAXPROCS, 1 = serial); output is identical at any width")

		coreShards = flag.Int("core-shards", 0, "step each machine's cores on up to N goroutines with a deterministic quantum barrier (0 = classic serial); output is identical at any width >= 1")

		traceOut    = flag.String("trace-out", "", "export one span per experiment cell after the run (Chrome trace JSON; .jsonl for compact JSONL)")
		flightDepth = flag.Int("flight-depth", 0, "span-ring depth for -trace-out (0 = default)")
	)
	flag.Parse()
	if *flightDepth < 0 {
		usageErr("-flight-depth must be non-negative")
	}
	if *coreShards < 0 {
		usageErr("-core-shards must be non-negative (0 = classic serial stepping)")
	}
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "jobs" && *jobs <= 0 {
			usageErr("-jobs must be positive (omit the flag for GOMAXPROCS)")
		}
		if f.Name == "flight-depth" && *traceOut == "" {
			usageErr("-flight-depth has no effect without -trace-out")
		}
		if f.Name == "arch" {
			if e := strings.ToLower(*exp); e != "archcompare" && e != "loadramp" {
				usageErr("-arch only applies to -exp archcompare or loadramp")
			}
		}
	})
	var archList []string
	if *archs != "" {
		for _, name := range strings.Split(*archs, ",") {
			name = strings.TrimSpace(name)
			if _, ok := xlatpolicy.Get(name); !ok {
				usageErr("unknown arch %q (want %s)", name, xlatpolicy.UsageList())
			}
			archList = append(archList, name)
		}
	}

	o := experiments.Default()
	if *quick {
		o = experiments.Quick()
	}
	if *cores > 0 {
		o.Cores = *cores
	}
	if *scale > 0 {
		o.Scale = *scale
	}
	if *warm > 0 {
		o.WarmInstr = *warm
	}
	if *measure > 0 {
		o.MeasureInstr = *measure
	}
	if *seed > 0 {
		o.Seed = *seed
	}
	o.Jobs = *jobs
	o.CoreShards = *coreShards

	var cellRec *obs.Recorder
	if *traceOut != "" {
		cellRec = obs.NewRecorder(o.Seed, obs.ControlScope, obs.Options{Depth: *flightDepth}.RingDepth())
		experiments.SetObsRecorder(cellRec)
	}
	writeTrace := func() {
		if cellRec == nil {
			return
		}
		streams := []obs.Stream{{Name: "cells", Spans: cellRec.Spans()}}
		if err := obs.WriteTraceFile(*traceOut, "bfbench", streams); err != nil {
			fmt.Fprintln(os.Stderr, "bfbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "bfbench: trace (schema v%d, %d cells) written to %s\n",
			obs.TraceSchemaVersion, cellRec.Total(), *traceOut)
	}

	if *format == "json" || *format == "markdown" {
		rep, err := experiments.RunAll(o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bfbench:", err)
			os.Exit(1)
		}
		if *format == "json" {
			err = rep.WriteJSON(os.Stdout)
		} else {
			err = rep.WriteMarkdown(os.Stdout)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bfbench:", err)
			os.Exit(1)
		}
		writeTrace()
		return
	}
	if err := run(strings.ToLower(*exp), o, archList); err != nil {
		fmt.Fprintln(os.Stderr, "bfbench:", err)
		os.Exit(1)
	}
	writeTrace()
}

// usageErr reports a flag mistake with the full usage text and exits
// with status 2, mirroring the flag package's own error convention.
func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bfbench: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func run(exp string, o experiments.Options, archList []string) error {
	want := func(name string) bool { return exp == "all" || exp == name }

	// The head-to-head sweep is opt-in only: it is not part of "all" (or
	// the json/markdown suite), whose output is pinned by the identity CI
	// job.
	if exp == "archcompare" {
		r, err := experiments.ArchCompare(o, archList)
		if err != nil {
			return err
		}
		fmt.Println(r)
		return nil
	}

	// The open-loop fleet ramp is likewise opt-in only: it runs whole
	// clusters per cell and would both slow "all" and perturb the pinned
	// identity output.
	if exp == "loadramp" {
		r, err := experiments.LoadRamp(o, archList)
		if err != nil {
			return err
		}
		fmt.Println(r)
		return nil
	}

	if want("tablei") || want("tableI") {
		fmt.Println(experiments.TableI(o))
	}
	if want("fig7") {
		r, err := experiments.Fig7(o)
		if err != nil {
			return err
		}
		fmt.Println(r)
	}
	if want("fig9") {
		r, err := experiments.Fig9(o)
		if err != nil {
			return err
		}
		fmt.Println(r)
	}
	if want("fig10a") || want("fig10b") || (exp == "all") || exp == "fig10" {
		if exp == "all" || strings.HasPrefix(exp, "fig10") {
			r, err := experiments.Fig10(o)
			if err != nil {
				return err
			}
			fmt.Println(r)
		}
	}
	if want("fig11") || want("tableii") {
		r, err := experiments.Fig11(o)
		if err != nil {
			return err
		}
		fmt.Println(r)
		fmt.Println(experiments.TableII(r))
	}
	if want("tableiii") {
		fmt.Println(experiments.TableIII())
	}
	if want("largertlb") {
		r, err := experiments.LargerTLB(o)
		if err != nil {
			return err
		}
		fmt.Println(r)
	}
	if want("bringup") {
		r, err := experiments.Bringup(o)
		if err != nil {
			return err
		}
		fmt.Println(r)
	}
	if want("resources") {
		r, err := experiments.Resources(o)
		if err != nil {
			return err
		}
		fmt.Println(r)
	}
	if want("sweeps") {
		r1, err := experiments.SweepColocation(o, nil)
		if err != nil {
			return err
		}
		fmt.Println(r1)
		r2, err := experiments.SweepGroupSize(o, nil)
		if err != nil {
			return err
		}
		fmt.Println(r2)
		r3, err := experiments.Variants(o)
		if err != nil {
			return err
		}
		fmt.Println(r3)
		r4, err := experiments.SweepSMT(o)
		if err != nil {
			return err
		}
		fmt.Println(r4)
		r5, err := experiments.Churn(o, 4)
		if err != nil {
			return err
		}
		fmt.Println(r5)
	}
	return nil
}
