// Command bfbench regenerates the tables and figures of the BabelFish
// paper's evaluation (Section VII) on the simulator.
//
// Usage:
//
//	bfbench [-exp all|tableI|fig7|fig9|fig10|fig10a|fig10b|fig11|tableII|tableIII|largertlb|bringup|resources|sweeps|archcompare|loadramp]
//	        [-arch NAME,NAME,...] [-cores N] [-scale F] [-warm N] [-measure N] [-seed N] [-quick]
//	        [-format text|json|markdown]
//	        [shared flags: -jobs -core-shards -trace-out -flight-depth]
//
// The shared flags are documented in package internal/cli. -jobs runs
// experiment cells in parallel; -trace-out exports one span per executed
// cell (architecture × app × config), showing how the invocation
// decomposed into its plan. Everything an invocation prints, for any
// -exp and any -format, is one plan (one experiments.Suite, run once),
// so a serving run that several figures read is one span, and a failing
// cell prints nothing.
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
	"io"
	"os"
	"slices"
	"strings"

	"babelfish/internal/cli"
	"babelfish/internal/experiments"
	"babelfish/internal/obs"
	"babelfish/internal/xlatpolicy"
)

// experiment is one row of the -exp table: the ids that select it (any
// case) and how it prints. declare puts the experiment's cells on the
// env's Suite and returns what it prints, one Println per value, once
// the Suite has run. Rows print in table order under "all"; an optIn row
// runs only when one of its ids is named.
type experiment struct {
	ids     []string
	optIn   bool
	declare func(env) func() []any
}

// env is what a row reads: the options, the -arch list and the Suite
// that holds the one plan of everything an invocation prints. Each
// serving run that several figures read (Figures 10 and 11, §VII-C,
// resources) is one cell of that plan, and Suite.Run starts the serving
// runs before the figure-only cells (the sweeps, archcompare and
// loadramp among them), which keeps the quick suite's peak RSS at about
// 32 MB (42–46 MB in figure order).
type env struct {
	o     experiments.Options
	archs []string
	s     *experiments.Suite
}

// fig is a row that prints one result declared on the Suite.
func fig[R any](declare func(*experiments.Suite, experiments.Options) func() R) func(env) func() []any {
	return func(e env) func() []any {
		get := declare(e.s, e.o)
		return func() []any { return []any{get()} }
	}
}

// exps is the -exp table. The head-to-head sweep and the open-loop fleet
// ramp are opt-in: they are not part of "all" (or the json/markdown
// suite), whose output is pinned by the identity CI job, and the ramp
// runs whole clusters per cell.
var exps = []experiment{
	{ids: []string{"tableI"}, declare: func(e env) func() []any { return func() []any { return []any{experiments.TableI(e.o)} } }},
	{ids: []string{"fig7"}, declare: fig((*experiments.Suite).Fig7)},
	{ids: []string{"fig9"}, declare: fig((*experiments.Suite).Fig9)},
	{ids: []string{"fig10", "fig10a", "fig10b"}, declare: fig((*experiments.Suite).Fig10)},
	{ids: []string{"fig11", "tableII"}, declare: func(e env) func() []any {
		get := e.s.Fig11(e.o)
		return func() []any {
			r := get()
			return []any{r, experiments.TableII(r)}
		}
	}},
	{ids: []string{"tableIII"}, declare: func(env) func() []any { return func() []any { return []any{experiments.TableIII()} } }},
	{ids: []string{"largertlb"}, declare: fig((*experiments.Suite).LargerTLB)},
	{ids: []string{"bringup"}, declare: fig((*experiments.Suite).Bringup)},
	{ids: []string{"resources"}, declare: fig((*experiments.Suite).Resources)},
	{ids: []string{"sweeps"}, declare: func(e env) func() []any {
		coloc, group := e.s.SweepColocation(e.o, nil), e.s.SweepGroupSize(e.o, nil)
		variants, smt, churn := e.s.Variants(e.o), e.s.SweepSMT(e.o), e.s.Churn(e.o, 4)
		return func() []any { return []any{coloc(), group(), variants(), smt(), churn()} }
	}},
	{ids: []string{"archcompare"}, optIn: true, declare: func(e env) func() []any {
		get := e.s.ArchCompare(e.o, e.archs)
		return func() []any { return []any{get()} }
	}},
	{ids: []string{"loadramp"}, optIn: true, declare: func(e env) func() []any {
		get := e.s.LoadRamp(e.o, e.archs)
		return func() []any { return []any{get()} }
	}},
}

// formats are the -format values other than text. Each writes the
// pinned suite's report, whatever -exp selects.
var formats = map[string]func(*experiments.Report, io.Writer) error{
	"json":     (*experiments.Report).WriteJSON,
	"markdown": (*experiments.Report).WriteMarkdown,
}

// selects reports whether the -exp value exp runs e.
func (e experiment) selects(exp string) bool {
	if strings.EqualFold(exp, "all") && !e.optIn {
		return true
	}
	return slices.ContainsFunc(e.ids, func(id string) bool { return strings.EqualFold(id, exp) })
}

// validExp reports whether the -exp value selects an experiment.
func validExp(exp string) bool {
	return slices.ContainsFunc(exps, func(e experiment) bool { return e.selects(exp) })
}

// expIDs lists every accepted -exp value for the usage text.
func expIDs() string {
	ids := []string{"all"}
	for _, e := range exps {
		ids = append(ids, e.ids...)
	}
	return strings.Join(ids, ", ")
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	c := cli.New("bfbench", false)
	var (
		exp     = c.String("exp", "all", "experiment id ("+expIDs()+")")
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
	if *format != "text" && formats[*format] == nil {
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

	en := env{o: o, archs: archList, s: new(experiments.Suite)}
	if c.TraceOut != "" {
		en.s.Recorder = obs.NewRecorder(o.Seed, obs.ControlScope, obs.Options{Depth: c.FlightDepth}.RingDepth())
	}
	show := en.declare(expID, *format)
	if err := en.s.Run(o.Jobs); err != nil {
		return c.Fail(err)
	}
	if err := show(os.Stdout); err != nil {
		return c.Fail(err)
	}
	if rec := en.s.Recorder; rec != nil {
		// stdout carries the report, so the trace line goes to stderr.
		streams := []obs.Stream{{Name: "cells", Spans: rec.Spans()}}
		if err := cli.WriteTrace(os.Stderr, c.TraceOut, "bfbench", streams); err != nil {
			return c.Fail(err)
		}
	}
	return 0
}

// declare puts every cell the invocation prints on e's Suite and returns
// what prints it once the Suite has run: the pinned report for -format
// json or markdown, else each experiment exp selects, in table order.
func (e env) declare(exp, format string) func(io.Writer) error {
	if write := formats[format]; write != nil {
		get := e.s.Report(e.o)
		return func(w io.Writer) error { return write(get(), w) }
	}
	var prints []func() []any
	for _, x := range exps {
		if x.selects(exp) {
			prints = append(prints, x.declare(e))
		}
	}
	return func(w io.Writer) error {
		for _, show := range prints {
			for _, r := range show() {
				fmt.Fprintln(w, r)
			}
		}
		return nil
	}
}
