// Command bfbench regenerates the tables and figures of the BabelFish
// paper's evaluation (Section VII) on the simulator.
//
// Usage:
//
//	bfbench [-exp all|tableI|fig7|fig9|fig10a|fig10b|fig11|tableII|tableIII|largertlb|bringup|resources|sweeps|archcompare|loadramp]
//	        [-arch NAME,NAME,...] [-cores N] [-scale F] [-warm N] [-measure N] [-seed N] [-quick]
//	        [-format text|json|markdown]
//	        [shared flags: -jobs -core-shards -trace-out -flight-depth]
//
// The shared flags are documented in package internal/cli. -jobs runs
// experiment cells in parallel; -trace-out exports one span per executed
// cell (architecture × app × config), showing how each experiment
// decomposed into its plan.
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
// the paper's numbers for comparison. -cores, -scale, -warm, -measure
// and -seed override the chosen option set when non-zero. -format json
// or markdown runs the whole pinned suite.
package main

import (
	"fmt"
	"os"
	"slices"
	"strings"

	"babelfish/internal/cli"
	"babelfish/internal/experiments"
	"babelfish/internal/obs"
	"babelfish/internal/xlatpolicy"
)

// validExp reports whether runExp knows the -exp value (any case).
func validExp(exp string) bool {
	return slices.Contains([]string{"all", "tablei", "fig7", "fig9", "fig10", "fig10a", "fig10b", "fig11",
		"tableii", "tableiii", "largertlb", "bringup", "resources", "sweeps", "archcompare", "loadramp"},
		strings.ToLower(exp))
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	c := cli.New("bfbench", false)
	var (
		exp     = c.String("exp", "all", "experiment id (all, tableI, fig9, fig10a, fig10b, fig11, tableII, tableIII, largertlb, bringup, resources, sweeps, fig7, archcompare, loadramp)")
		archs   = c.String("arch", "", "architectures for -exp archcompare or loadramp, comma-separated from "+xlatpolicy.UsageList()+" (empty = all registered / the baseline-babelfish pair)")
		cores   = c.Int("cores", 0, "number of cores (0 = default 8)")
		scale   = c.Float64("scale", 0, "dataset scale factor (0 = default 1.0)")
		warm    = c.Uint64("warm", 0, "warm-up instructions per core (0 = default)")
		measure = c.Uint64("measure", 0, "measured instructions per core (0 = default)")
		seed    = c.Uint64("seed", 0, "random seed (0 = default)")
		quick   = c.Bool("quick", false, "use the reduced smoke-test options")
		format  = c.String("format", "text", "output format: text, json or markdown (json/markdown run all experiments)")
	)
	if status, ok := c.Parse(args); !ok {
		return status
	}
	if !validExp(*exp) {
		return c.UsageErr("unknown experiment %q", *exp)
	}
	expID := strings.ToLower(*exp)
	if *format != "text" && *format != "json" && *format != "markdown" {
		return c.UsageErr("unknown format %q (want text, json or markdown)", *format)
	}
	if *cores < 0 {
		return c.UsageErr("-cores must be non-negative (0 = default)")
	}
	if *scale != 0 {
		if err := cli.Positive("scale", *scale); err != nil {
			return c.UsageErr("%v (0 = default)", err)
		}
	}
	if c.Given("arch") && expID != "archcompare" && expID != "loadramp" {
		return c.UsageErr("-arch only applies to -exp archcompare or loadramp")
	}
	var archList []string
	if *archs != "" {
		for _, name := range strings.Split(*archs, ",") {
			name = strings.TrimSpace(name)
			if _, ok := xlatpolicy.Get(name); !ok {
				return c.UsageErr("unknown arch %q (want %s)", name, xlatpolicy.UsageList())
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
	o.Jobs = c.Jobs
	o.CoreShards = c.CoreShards

	var cellRec *obs.Recorder
	if c.TraceOut != "" {
		cellRec = obs.NewRecorder(o.Seed, obs.ControlScope, obs.Options{Depth: c.FlightDepth}.RingDepth())
		experiments.SetObsRecorder(cellRec)
	}

	var err error
	switch *format {
	case "json", "markdown":
		var rep *experiments.Report
		if rep, err = experiments.RunAll(o); err == nil {
			if *format == "json" {
				err = rep.WriteJSON(os.Stdout)
			} else {
				err = rep.WriteMarkdown(os.Stdout)
			}
		}
	default:
		err = runExp(expID, o, archList)
	}
	if err != nil {
		return c.Fail(err)
	}
	if cellRec != nil {
		// stdout carries the report, so the trace line goes to stderr.
		streams := []obs.Stream{{Name: "cells", Spans: cellRec.Spans()}}
		if err := cli.WriteTrace(os.Stderr, c.TraceOut, "bfbench", streams); err != nil {
			return c.Fail(err)
		}
	}
	return 0
}

func runExp(exp string, o experiments.Options, archList []string) error {
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

	// The figures below share one Suite, so a serving run that several
	// of them read (Figures 10 and 11, §VII-C, resources) is simulated
	// once per invocation.
	suite := new(experiments.Suite)
	if want("tablei") {
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
	if want("fig10") || exp == "fig10a" || exp == "fig10b" {
		r, err := suite.Fig10(o)
		if err != nil {
			return err
		}
		fmt.Println(r)
	}
	if want("fig11") || want("tableii") {
		r, err := suite.Fig11(o)
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
		r, err := suite.LargerTLB(o)
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
		r, err := suite.Resources(o)
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
