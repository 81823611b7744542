package experiments

import (
	"fmt"
	"strings"

	"babelfish/internal/metrics"
	"babelfish/internal/sim"
	"babelfish/internal/workloads"
)

// triple holds one application's primary metric under the three
// architectures used by Figure 11 and Table II.
type triple struct {
	Base, PTOnly, Full float64
}

func (t triple) reductionPct() float64 { return metrics.ReductionPct(t.Base, t.Full) }

// tlbFraction attributes the gain to L2 TLB effects (Table II):
// fraction = (T_PTonly − T_full) / (T_base − T_full), clamped to [0, 1].
func (t triple) tlbFraction() float64 {
	den := t.Base - t.Full
	if den <= 0 {
		return 0
	}
	f := (t.PTOnly - t.Full) / den
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	return f
}

// Fig11Result carries the latency/execution-time reductions of Figure 11
// together with the Table II attribution (computed from the same runs).
type Fig11Result struct {
	// Data serving: mean and p95 latency.
	ServingApps []string
	ServingMean []triple
	ServingTail []triple

	// Compute: execution time (cycles per operation batch).
	ComputeApps []string
	ComputeExec []triple

	// Functions: completion time per function, dense and sparse.
	FuncNames   []string
	DenseExec   []triple
	SparseExec  []triple
	BringupNote string
}

// fig11Archs is the three-way comparison every Fig11 workload runs; the
// index matches triple's Base/PTOnly/Full fields via triple.set.
var fig11Archs = [3]Arch{Baseline, BabelFishPT, BabelFish}

// set stores a value into the field matching fig11Archs[i]. Distinct i
// address distinct fields, so three cells may fill one triple in
// parallel.
func (t *triple) set(i int, v float64) {
	switch i {
	case 0:
		t.Base = v
	case 1:
		t.PTOnly = v
	case 2:
		t.Full = v
	}
}

// Fig11 runs everything. This is the heaviest experiment — every workload
// under Baseline, BabelFish-PTonly and full BabelFish — so it decomposes
// into one cell per (workload × architecture) measurement.
func Fig11(o Options) (*Fig11Result, error) {
	serving := ServingApps()
	compute := ComputeApps()
	res := &Fig11Result{
		ServingMean: make([]triple, len(serving)),
		ServingTail: make([]triple, len(serving)),
		ComputeExec: make([]triple, len(compute)),
	}
	for _, spec := range serving {
		res.ServingApps = append(res.ServingApps, spec.Name)
	}
	for _, spec := range compute {
		res.ComputeApps = append(res.ComputeApps, spec.Name)
	}

	var pl plan
	for i, spec := range serving {
		for ai, a := range fig11Archs {
			i, ai, a, spec := i, ai, a, spec
			pl.add("fig11/"+spec.Name+"/"+a.String(), func() error {
				_, d, err := deployServing(o, a, spec)
				if err != nil {
					return err
				}
				res.ServingMean[i].set(ai, d.MeanLatency())
				res.ServingTail[i].set(ai, d.TailLatency(95))
				return nil
			})
		}
	}
	for i, spec := range compute {
		for ai, a := range fig11Archs {
			i, ai, a, spec := i, ai, a, spec
			pl.add("fig11/"+spec.Name+"/"+a.String(), func() error {
				_, d, err := deployServing(o, a, spec)
				if err != nil {
					return err
				}
				res.ComputeExec[i].set(ai, d.MeanExecOwn())
				return nil
			})
		}
	}
	// Functions: one cell per (variant × architecture); triples are
	// assembled from the per-arch sums once all runs are in.
	var funcRuns [2][3]funcArchRun
	for vi, sparse := range []bool{false, true} {
		for ai, a := range fig11Archs {
			vi, ai, a, sparse := vi, ai, a, sparse
			variant := "dense"
			if sparse {
				variant = "sparse"
			}
			pl.add("fig11/functions-"+variant+"/"+a.String(), func() error {
				pa, err := functionRun(o, sparse, a)
				if err != nil {
					return err
				}
				funcRuns[vi][ai] = pa
				return nil
			})
		}
	}
	if err := pl.execute(o.Jobs); err != nil {
		return nil, err
	}

	res.FuncNames = funcRuns[0][0].names
	for vi := range funcRuns {
		ts := make([]triple, 0, len(res.FuncNames))
		for _, n := range res.FuncNames {
			var t triple
			for ai := range funcRuns[vi] {
				t.set(ai, funcRuns[vi][ai].avg(n))
			}
			ts = append(ts, t)
		}
		if vi == 0 {
			res.DenseExec = ts
		} else {
			res.SparseExec = ts
		}
	}
	return res, nil
}

// funcArchRun is one (variant × architecture) function measurement: the
// per-function sums/counts of the measured wave.
type funcArchRun struct {
	names  []string
	sums   map[string]float64
	counts map[string]int
}

func (pa funcArchRun) avg(name string) float64 {
	if pa.counts[name] == 0 {
		return 0
	}
	return pa.sums[name] / float64(pa.counts[name])
}

// functionRun measures per-function completion time with the paper's
// exclusion of cold-start effects: a leading group of three containers
// (one per function) runs to completion first and is not measured — "the
// leading function behaves similarly in both BabelFish and Baseline due
// to cold start effects" — then the measured wave runs, one container of
// each function per core.
func functionRun(o Options, sparse bool, a Arch) (funcArchRun, error) {
	pa := funcArchRun{sums: map[string]float64{}, counts: map[string]int{}}
	m := sim.New(o.Params(a))
	fg, err := workloads.DeployFaaS(m, sparse, o.Scale, o.Seed)
	if err != nil {
		return pa, err
	}
	pa.names = fg.FunctionNames()
	// Leading wave (excluded from measurement).
	for j, name := range pa.names {
		if _, _, err := fg.Spawn(name, j%o.Cores, o.Seed+uint64(j)); err != nil {
			return pa, err
		}
	}
	if err := m.RunToCompletion(); err != nil {
		return pa, err
	}
	// Measured wave.
	type sched struct {
		task *sim.Task
		name string
	}
	scheds := make([]sched, 0, o.Cores*len(pa.names))
	for core := 0; core < o.Cores; core++ {
		for j, name := range pa.names {
			task, _, err := fg.Spawn(name, core, o.Seed+uint64(1000+core*97+j))
			if err != nil {
				return pa, err
			}
			scheds = append(scheds, sched{task: task, name: name})
		}
	}
	if err := m.RunToCompletion(); err != nil {
		return pa, err
	}
	for _, s := range scheds {
		// Use the task's own cycles: three functions multiplex one
		// core, so wall-clock would triple-count the others' slices.
		if s.task.LatOwn.Count() > 0 {
			pa.sums[s.name] += s.task.LatOwn.Mean()
			pa.counts[s.name]++
		}
	}
	return pa, nil
}

// MeanServingReduction averages the mean-latency reductions (paper: 11%).
func (r *Fig11Result) MeanServingReduction() float64 {
	return avgReduction(r.ServingMean)
}

// TailServingReduction averages the p95 reductions (paper: 18%).
func (r *Fig11Result) TailServingReduction() float64 {
	return avgReduction(r.ServingTail)
}

// ComputeReduction averages the compute execution-time reductions
// (paper: 11%).
func (r *Fig11Result) ComputeReduction() float64 {
	return avgReduction(r.ComputeExec)
}

// DenseReduction / SparseReduction average the function execution-time
// reductions (paper: dense 10%, sparse 55%).
func (r *Fig11Result) DenseReduction() float64  { return avgReduction(r.DenseExec) }
func (r *Fig11Result) SparseReduction() float64 { return avgReduction(r.SparseExec) }

func avgReduction(ts []triple) float64 {
	if len(ts) == 0 {
		return 0
	}
	var s float64
	for _, t := range ts {
		s += t.reductionPct()
	}
	return s / float64(len(ts))
}

// String renders Figure 11.
func (r *Fig11Result) String() string {
	var b strings.Builder
	t := metrics.NewTable("Figure 11: latency/time reduction (paper: serving mean -11% / tail -18%; compute -11%; dense -10%; sparse -55%)",
		"workload", "metric", "baseline", "babelfish", "reduction%")
	for i, app := range r.ServingApps {
		t.Row(app, "mean-lat", r.ServingMean[i].Base, r.ServingMean[i].Full, r.ServingMean[i].reductionPct())
		t.Row(app, "p95-lat", r.ServingTail[i].Base, r.ServingTail[i].Full, r.ServingTail[i].reductionPct())
	}
	for i, app := range r.ComputeApps {
		t.Row(app, "exec", r.ComputeExec[i].Base, r.ComputeExec[i].Full, r.ComputeExec[i].reductionPct())
	}
	for i, fn := range r.FuncNames {
		if i < len(r.DenseExec) {
			t.Row(fn+"-dense", "exec", r.DenseExec[i].Base, r.DenseExec[i].Full, r.DenseExec[i].reductionPct())
		}
		if i < len(r.SparseExec) {
			t.Row(fn+"-sparse", "exec", r.SparseExec[i].Base, r.SparseExec[i].Full, r.SparseExec[i].reductionPct())
		}
	}
	b.WriteString(t.String())
	b.WriteString("\n")
	s := metrics.NewTable("Figure 11 summary", "class", "reduction%")
	s.Row("serving-mean", r.MeanServingReduction())
	s.Row("serving-tail", r.TailServingReduction())
	s.Row("compute", r.ComputeReduction())
	s.Row("functions-dense", r.DenseReduction())
	s.Row("functions-sparse", r.SparseReduction())
	b.WriteString(s.String())
	return b.String()
}

// TableIIResult attributes Figure 11's gains to L2 TLB effects (the rest
// comes from page-table effects).
type TableIIResult struct {
	Fig11 *Fig11Result
}

// TableII derives the attribution from a Fig11 run.
func TableII(f *Fig11Result) *TableIIResult { return &TableIIResult{Fig11: f} }

// String renders Table II.
func (r *TableIIResult) String() string {
	f := r.Fig11
	t := metrics.NewTable("Table II: fraction of time reduction due to L2 TLB effects (paper: Mongo 0.77, Arango 0.25, HTTPd 0.81, GraphChi 0.11, FIO 0.29, dense avg 0.20, sparse avg 0.01)",
		"workload", "tlbFraction")
	var servingSum float64
	for i, app := range f.ServingApps {
		frac := f.ServingMean[i].tlbFraction()
		servingSum += frac
		t.Row(app, frac)
	}
	if len(f.ServingApps) > 0 {
		t.Row("serving-average", servingSum/float64(len(f.ServingApps)))
	}
	var compSum float64
	for i, app := range f.ComputeApps {
		frac := f.ComputeExec[i].tlbFraction()
		compSum += frac
		t.Row(app, frac)
	}
	if len(f.ComputeApps) > 0 {
		t.Row("compute-average", compSum/float64(len(f.ComputeApps)))
	}
	var dSum, sSum float64
	for i, fn := range f.FuncNames {
		if i < len(f.DenseExec) {
			frac := f.DenseExec[i].tlbFraction()
			dSum += frac
			t.Row(fmt.Sprintf("%s-dense", fn), frac)
		}
		if i < len(f.SparseExec) {
			frac := f.SparseExec[i].tlbFraction()
			sSum += frac
			t.Row(fmt.Sprintf("%s-sparse", fn), frac)
		}
	}
	if n := float64(len(f.FuncNames)); n > 0 {
		t.Row("dense-average", dSum/n)
		t.Row("sparse-average", sSum/n)
	}
	return t.String()
}
