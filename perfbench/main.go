// Command perfbench is the simulator's end-to-end benchmark. It runs one
// workload through the simulator's public packages (sim, workloads,
// container, fleet, loadgen, experiments) for a fixed host time, checks
// the simulated results, and prints one JSON result line.
//
// With -trace 0 the result holds the end-to-end metrics, measured with
// no instrumentation. With -trace 1 the workload first runs for half the
// time under a CPU profile of this process, then the same repetitions
// run again with timing spans at the layer seams; the result holds the
// per-layer metrics, and the run fails unless the traced and untraced
// simulated counters are identical.
//
// Run it from the repository root through run.sh, which builds it.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "serve-steady, start-storm, fleet-flash or suite-quick")
	seed := fs.Uint64("seed", 1, "workload seed: every input is generated from it")
	seconds := fs.Int("seconds", 15, "host seconds to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced run")
	root := fs.String("root", ".", "repository root (for the quick-suite golden)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown -workload %q\n", *name)
		return 2
	case *seconds < 1:
		fmt.Fprintln(stderr, "perfbench: -seconds must be at least 1")
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	h := hostInfo(*name, *seed)
	if w.workers > h.NProc {
		fmt.Fprintf(stderr, "perfbench: %s uses %d workers but this host has %d CPUs\n", w.name, w.workers, h.NProc)
		return 2
	}
	golden, err := os.ReadFile(filepath.Join(*root, "testdata", "arch_identity_golden.json"))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	b := &bench{seed: *seed, golden: golden}
	budget := time.Duration(*seconds) * time.Second

	var res result
	if *trace == 0 {
		res, err = endToEnd(w, b, budget, stderr)
	} else {
		res, err = perLayer(w, b, budget, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	hj, _ := json.Marshal(h)
	fmt.Fprintf(stdout, "host %s\n", hj)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// host records where a result was measured.
type host struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	OSArch     string `json:"os_arch"`
}

func hostInfo(workload string, seed uint64) host {
	return host{
		Workload: workload, Seed: seed,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pass is one sequence of repetitions of a workload.
type pass struct {
	reps       int
	setupS     []float64
	opMS       []float64
	refMS      []float64 // the reference loop's time around each operation
	attempted  int
	failed     int
	instrs     uint64
	problems   []string           // why operations failed, first few
	mismatches int                // repetitions whose statistics differ from their reference
	refs       map[uint64]*repOut // first repetition of each input
	first      *repOut            // the first timed repetition
	warmS      float64            // host seconds of the warm-up repetition
	allocBytes uint64             // heap bytes allocated by the timed operations (metered passes)
	gcCycles   uint64             // GC cycles during the timed operations (metered passes)
}

// mips is simulated instructions per host second of the timed
// operations, in millions.
func (p *pass) mips() float64 {
	if s := sum(p.opMS); s > 0 {
		return float64(p.instrs) / (s / 1e3) / 1e6
	}
	return 0
}

func (p *pass) problem(format string, args ...any) {
	if len(p.problems) < 8 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// inputSeed is the seed of repetition r's inputs. Repetitions cycle
// through the workload's input sets, so one run's median covers several
// seeded layouts and request streams instead of hanging on one; every
// input set after its first repetition is checked against that first.
func inputSeed(w workload, seed uint64, r int) uint64 {
	return mix(seed, uint64(1+r%w.inputs))
}

// The label that marks the timed operations in a CPU profile.
const opLabel, opPhase = "phase", "op"

// opMeter measures the timed operations of a profiled pass: each runs
// under the profile label phase=op, which goroutines started inside it
// (the par pool's workers) inherit, and the heap bytes allocated and GC
// cycles are added up across the operations only. Set-up, warm-up and
// the benchmark's own checks stay outside.
type opMeter struct {
	allocBytes, gcCycles uint64
}

// op runs one timed operation, under the meter when there is one, and
// records its host time in out with the mean time of the reference loop
// run just before and just after it.
func (b *bench) op(out *repOut, f func() error) error {
	m := b.meter
	var rt [2]uint64
	if m != nil {
		rt = readRuntime()
		inner := f
		f = func() (err error) {
			pprof.Do(context.Background(), pprof.Labels(opLabel, opPhase), func(context.Context) { err = inner() })
			return err
		}
	}
	ref := b.reference()
	t := time.Now()
	err := f()
	out.opMS = append(out.opMS, msSince(t))
	out.refMS = append(out.refMS, (ref+b.reference())/2)
	if m != nil {
		after := readRuntime()
		m.allocBytes += after[0] - rt[0]
		m.gcCycles += after[1] - rt[1]
	}
	return err
}

// runPass runs repetitions until the budget is spent (and at least the
// workload's minimum), or exactly reps repetitions when reps > 0. Each
// repetition is checked against refs, the first repetition of the same
// input set; a nil refs starts afresh. With warm set, a warm-up
// repetition first fills the process's lazy state (heap, page tables,
// the simulator's seed-keyed caches): it is checked like the others, but
// its time is kept apart in warmS. With metered set, the timed
// repetitions' operations run under an opMeter.
func runPass(w workload, b *bench, budget time.Duration, reps int, refs map[uint64]*repOut, tr *tracer, warm, metered bool) (*pass, error) {
	p := &pass{refs: refs}
	if p.refs == nil {
		p.refs = map[uint64]*repOut{}
	}
	if warm {
		t := time.Now()
		sub := inputSeed(w, b.seed, 0)
		out, err := w.rep(b, sub, tr)
		if err != nil {
			return nil, fmt.Errorf("warm-up repetition: %w", err)
		}
		p.warmS = time.Since(t).Seconds()
		p.account(sub, out)
	}
	if metered {
		b.meter = &opMeter{}
		defer func() {
			p.allocBytes, p.gcCycles = b.meter.allocBytes, b.meter.gcCycles
			b.meter = nil
		}()
	}
	start := time.Now()
	for {
		if reps > 0 && p.reps == reps {
			break
		}
		if reps == 0 && p.reps >= w.minReps && time.Since(start) >= budget {
			break
		}
		sub := inputSeed(w, b.seed, p.reps)
		out, err := w.rep(b, sub, tr)
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", p.reps+1, err)
		}
		if p.first == nil {
			p.first = out
		}
		p.reps++
		if out.setupS >= 0 {
			p.setupS = append(p.setupS, out.setupS)
		}
		p.opMS = append(p.opMS, out.opMS...)
		p.refMS = append(p.refMS, out.refMS...)
		p.instrs += out.instrs
		p.account(sub, out)
	}
	return p, nil
}

// account counts one repetition's operations. An operation fails if it
// returned an error, if an auditor reported a violation after the timed
// phase, or if its simulated statistics differ from those of the first
// repetition of the same inputs (digest after each operation, and every
// counter at the end).
func (p *pass) account(sub uint64, out *repOut) {
	p.attempted += len(out.opMS)
	if out.opErrs > 0 {
		p.failed += out.opErrs
		p.problem("repetition %d: %d operation(s) returned an error", p.reps, out.opErrs)
	}
	if len(out.violations) > 0 {
		p.failed += len(out.digests)
		p.problem("repetition %d: audit: %s", p.reps, out.violations[0])
		return
	}
	ref, ok := p.refs[sub]
	if !ok {
		p.refs[sub] = out
		return
	}
	if !equalCounters(ref.counters, out.counters) {
		p.mismatches++
		p.failed += len(out.digests)
		p.problem("repetition %d: final simulated counters differ from the first repetition of its inputs", p.reps)
		return
	}
	if len(out.digests) != len(ref.digests) {
		p.mismatches++
	}
	for i, d := range out.digests {
		if i >= len(ref.digests) || d != ref.digests[i] {
			p.mismatches++
			p.failed++
			p.problem("repetition %d: operation %d: simulated statistics differ from the first repetition of its inputs", p.reps, i+1)
		}
	}
}

// readRuntime returns the cumulative heap bytes allocated and GC cycles.
func readRuntime() [2]uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	var out [2]uint64
	for i := range s {
		if s[i].Value.Kind() == metrics.KindUint64 {
			out[i] = s[i].Value.Uint64()
		}
	}
	return out
}

// peakRSSMB is the process's peak resident set. Each workload runs in
// its own process, so no earlier workload can inflate it.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// opRef is each operation's host time over the reference loop's.
func (p *pass) opRef() []float64 {
	r := make([]float64, len(p.opMS))
	for i := range r {
		r[i] = ratio(p.opMS[i], p.refMS[i])
	}
	return r
}

// endToEndMetrics computes the end-to-end metrics of an untraced pass.
func endToEndMetrics(p *pass) map[string]metric {
	// A workload with no set-up of its own (the quick suite) reports
	// its warm-up repetition, which fills the lazy caches, as set-up.
	setupS := p.setupS
	if len(setupS) == 0 {
		setupS = []float64{p.warmS}
	}
	return map[string]metric{
		"op_ref_p25":  {summarize(p.opRef()).Q1, "ref"},
		"setup_s":     {median(setupS), "s"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
	}
}

// endToEnd measures the workload untraced.
func endToEnd(w workload, b *bench, budget time.Duration, log io.Writer) (result, error) {
	p, err := runPass(w, b, budget, 0, nil, nil, true, false)
	if err != nil {
		return result{}, err
	}
	res := result{
		Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed,
		Metrics: endToEndMetrics(p),
	}
	op := summarize(p.opMS)
	fmt.Fprintf(log, "%s: %d repetitions, %d operations (%d failed)\n", w.name, p.reps, p.attempted, p.failed)
	rel := summarize(p.opRef())
	fmt.Fprintf(log, "  op_ref   p50 %.4f  q1 %.4f  q3 %.4f\n", rel.P50, rel.Q1, rel.Q3)
	fmt.Fprintf(log, "  op_ms    p50 %.4f  q1 %.4f  q3 %.4f  tail %.4f at p%.2f of %d  (reference loop %.4f ms)\n",
		op.P50, op.Q1, op.Q3, op.Tail, op.TailPct, op.N, median(p.refMS))
	fmt.Fprintf(log, "  setup_s  %.4f  peak_rss_mb %.1f\n", res.Metrics["setup_s"].Value, res.Metrics["peak_rss_mb"].Value)
	if mips := p.mips(); mips > 0 {
		fmt.Fprintf(log, "  sim_mips %.4f\n", mips)
	}
	for _, s := range p.problems {
		fmt.Fprintf(log, "  FAILED: %s\n", s)
	}
	return res, nil
}

// perLayer runs the workload untraced under a CPU profile for half the
// budget, then the same repetitions again with timing spans at the layer
// seams, and reports the per-layer metrics. Host-time shares come from
// the profiled pass's timed operations only, so neither set-up nor the
// spans' own cost distorts them; the spans' cost is reported as the
// tracing overhead.
func perLayer(w workload, b *bench, budget time.Duration, log io.Writer) (result, error) {
	var prof bytes.Buffer
	rt := readRuntime()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, fmt.Errorf("cpu profile: %w", err)
	}
	plain, err := runPass(w, b, budget/2, 0, nil, nil, true, true)
	pprof.StopCPUProfile()
	if err != nil {
		return result{}, err
	}
	profAlloc := readRuntime()[0] - rt[0]
	cpu, err := parseProfile(prof.Bytes())
	if err != nil {
		return result{}, err
	}
	shares, nsamples := layerShares(cpu, ratio(float64(plain.allocBytes), float64(profAlloc)))

	// The traced pass repeats the untraced pass's repetitions and is
	// checked against its references: the spans must not move a single
	// simulated counter.
	tr := newTracer()
	traced, err := runPass(w, b, 0, plain.reps, plain.refs, tr, false, false)
	if err != nil {
		return result{}, err
	}
	lm := layerMetrics(plain, traced, tr, shares, nsamples)
	printLayers(log, w, plain, traced, lm)
	if w.name == "suite-quick" {
		if msg := suiteDrift(plain, tr); msg != "" {
			fmt.Fprintf(log, "  WARNING: %s\n", msg)
		}
	}
	return result{
		Correct:   plain.failed+traced.failed == 0,
		Attempted: plain.attempted + traced.attempted,
		Failed:    plain.failed + traced.failed,
		Metrics:   lm,
	}, nil
}

func equalCounters(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || math.Float64bits(w) != math.Float64bits(v) {
			return false
		}
	}
	return true
}

func printLayers(log io.Writer, w workload, plain, traced *pass, lm map[string]metric) {
	fmt.Fprintf(log, "%s per-layer (untraced %d reps / %d ops, traced %d reps / %d ops)\n",
		w.name, plain.reps, plain.attempted, traced.reps, traced.attempted)
	for _, nu := range perLayerUnits {
		fmt.Fprintf(log, "  %-30s %18.4f %s\n", nu[0], lm[nu[0]].Value, nu[1])
	}
	fmt.Fprintln(log, "  simulated counters of one repetition:")
	c := traced.first.counters
	names := make([]string, 0, len(c))
	for n := range c {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(log, "    %-40s %18.4f\n", n, c[n])
	}
	fmt.Fprintf(log, "  simulated counters identical traced vs untraced: %v\n", traced.mismatches == 0)
	for _, s := range append(plain.problems, traced.problems...) {
		fmt.Fprintf(log, "  FAILED: %s\n", s)
	}
}
