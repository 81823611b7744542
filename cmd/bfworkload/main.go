// Command bfworkload inspects the access streams the workload generators
// produce, without running the timing simulation: per-region footprints,
// read/write/instruction mixes, page-level locality, and request sizes.
// Useful when calibrating generators or adding workloads.
//
// Usage:
//
//	bfworkload [-app mongodb|arangodb|httpd|graphchi|fio|faas] [-steps N]
//	           [-scale F] [-seed N] [-sparse]
//
// A finite stream (a FaaS function) may end before -steps; the report
// covers the steps actually sampled. Exit status is 0 on success, 1 on a
// runtime error and 2 on a usage mistake: an unknown -app, a -scale that
// is not a finite positive number, or a -steps below 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"babelfish/internal/cli"
	"babelfish/internal/kernel"
	"babelfish/internal/memdefs"
	"babelfish/internal/metrics"
	"babelfish/internal/sim"
	"babelfish/internal/workloads"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	var (
		app    = fs.String("app", "mongodb", "workload: "+cli.AppList(false, "faas"))
		steps  = fs.Int("steps", 200_000, "steps to sample (fewer when a finite stream ends first)")
		scale  = fs.Float64("scale", 0.5, "dataset scale")
		seed   = fs.Uint64("seed", 42, "seed")
		sparse = fs.Bool("sparse", false, "sparse FaaS input variant")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2 // the flag package has printed the error and usage
	}
	usageErr := func(format string, a ...any) int {
		fmt.Fprintf(fs.Output(), "bfworkload: "+format+"\n", a...)
		fs.Usage()
		return 2
	}
	var spec *workloads.AppSpec
	if *app != "faas" {
		var err error
		if spec, err = cli.App(*app); err != nil {
			return usageErr("unknown app %q (want %s)", *app, cli.AppList(true, "faas"))
		}
	}
	if err := cli.Positive("scale", *scale); err != nil {
		return usageErr("%v", err)
	}
	if *steps < 1 {
		return usageErr("-steps must be at least 1")
	}

	p := sim.DefaultParams(kernel.ModeBaseline)
	p.Cores = 1
	p.MemBytes = 2 << 30
	m := sim.New(p)

	var task *sim.Task
	if spec == nil {
		fg, err := workloads.DeployFaaS(m, *sparse, *scale, *seed)
		if err != nil {
			return fail(err)
		}
		if task, _, err = fg.Spawn("parse", 0, *seed); err != nil {
			return fail(err)
		}
	} else {
		d, err := workloads.Deploy(m, spec, *scale, *seed)
		if err != nil {
			return fail(err)
		}
		if task, _, err = d.Spawn(0, *seed); err != nil {
			return fail(err)
		}
	}
	gen, proc := task.Gen, task.Proc

	type regionStat struct {
		name                  string
		reads, writes, instrs int
		pages                 map[memdefs.VPN]int
	}
	stats := map[string]*regionStat{}
	var s sim.Step
	var sampled, reqSteps, reqs, curReq int
	var totalThink int
	for ; sampled < *steps && gen.Next(&s); sampled++ {
		gva := proc.GroupVA(s.VA)
		vma, ok := proc.FindVMA(gva)
		name := "?"
		if ok {
			name = vma.Name
		}
		rs := stats[name]
		if rs == nil {
			rs = &regionStat{name: name, pages: map[memdefs.VPN]int{}}
			stats[name] = rs
		}
		switch {
		case s.Kind == memdefs.AccessInstr:
			rs.instrs++
		case s.Write:
			rs.writes++
		default:
			rs.reads++
		}
		rs.pages[memdefs.PageVPN(gva)]++
		totalThink += s.Think
		curReq++
		if s.Req == sim.ReqEnd {
			reqs++
			reqSteps += curReq
			curReq = 0
		}
	}

	var names []string
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	t := metrics.NewTable(fmt.Sprintf("%s access-stream sample (%d steps)", *app, sampled),
		"region", "reads", "writes", "ifetch", "distinct pages", "top-page share")
	for _, n := range names {
		rs := stats[n]
		max, total := 0, 0
		for _, c := range rs.pages {
			total += c
			if c > max {
				max = c
			}
		}
		t.Row(n, rs.reads, rs.writes, rs.instrs, len(rs.pages),
			fmt.Sprintf("%.1f%%", 100*float64(max)/float64(total)))
	}
	fmt.Println(t)
	if reqs > 0 {
		fmt.Printf("requests sampled: %d, mean steps/request: %.1f, mean think/step: %.1f instr\n",
			reqs, float64(reqSteps)/float64(reqs), float64(totalThink)/float64(sampled))
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bfworkload:", err)
	return 1
}
