package experiments

import (
	"fmt"
	"strings"

	"babelfish/internal/kernel"
	"babelfish/internal/memdefs"
	"babelfish/internal/metrics"
	"babelfish/internal/sim"
	"babelfish/internal/workloads"
)

// SweepResult holds one sensitivity sweep: a metric as a function of a
// swept parameter, for baseline and BabelFish.
type SweepResult struct {
	Name     string
	Param    string
	Points   []int
	Base     []float64
	BF       []float64
	RedPct   []float64
	MetricID string
}

// String renders the sweep.
func (r *SweepResult) String() string {
	t := metrics.NewTable(r.Name, r.Param, "baseline "+r.MetricID, "babelfish "+r.MetricID, "reduction%")
	for i := range r.Points {
		t.Row(r.Points[i], r.Base[i], r.BF[i], r.RedPct[i])
	}
	return t.String()
}

// mongoLatency deploys MongoDB with perCore containers on each core under
// the given machine parameters, runs warm-up + measurement, and returns
// the mean request latency. It is the common body of the sensitivity
// sweeps, each of which runs it as an independent plan cell.
func mongoLatency(o Options, p sim.Params, perCore int) (float64, error) {
	m := sim.New(p)
	d, err := workloads.Deploy(m, workloads.MongoDB(), o.Scale, o.Seed)
	if err != nil {
		return 0, err
	}
	for core := 0; core < o.Cores; core++ {
		for j := 0; j < perCore; j++ {
			if _, _, err := d.Spawn(core, o.Seed+uint64(core*97+j)); err != nil {
				return 0, err
			}
		}
	}
	if err := d.PrefaultAll(); err != nil {
		return 0, err
	}
	if err := m.Run(o.WarmInstr); err != nil {
		return 0, err
	}
	m.ResetStats()
	if err := m.Run(o.MeasureInstr); err != nil {
		return 0, err
	}
	return d.MeanLatency(), nil
}

// SweepColocation varies the number of containers per core (the paper
// argues its 2-3 per core is conservative — container environments are
// typically oversubscribed — so BabelFish's gains grow with density).
func SweepColocation(o Options, perCore []int) (*SweepResult, error) {
	if len(perCore) == 0 {
		perCore = []int{1, 2, 4, 6}
	}
	res := &SweepResult{
		Name:     "Sensitivity: containers per core (paper §VI: 2/core is conservative)",
		Param:    "containers/core",
		MetricID: "mean-lat",
		Points:   perCore,
	}
	vals := make([][2]float64, len(perCore))
	var pl plan
	for pi, n := range perCore {
		for ai, a := range [2]Arch{Baseline, BabelFish} {
			pi, ai, a, n := pi, ai, a, n
			pl.add(fmt.Sprintf("colocation/%d/%s", n, a), func() error {
				v, err := mongoLatency(o, o.Params(a), n)
				if err != nil {
					return err
				}
				vals[pi][ai] = v
				return nil
			})
		}
	}
	if err := pl.execute(o.Jobs); err != nil {
		return nil, err
	}
	for _, v := range vals {
		res.Base = append(res.Base, v[0])
		res.BF = append(res.BF, v[1])
		res.RedPct = append(res.RedPct, metrics.ReductionPct(v[0], v[1]))
	}
	return res, nil
}

// SweepGroupSize varies the number of function containers sharing one
// runtime image on a single core and reports total completion cycles —
// the more sharers, the more redundant faults BabelFish removes.
func SweepGroupSize(o Options, sizes []int) (*SweepResult, error) {
	if len(sizes) == 0 {
		sizes = []int{1, 2, 4, 8}
	}
	res := &SweepResult{
		Name:     "Sensitivity: function containers sharing one runtime (1 core)",
		Param:    "containers",
		MetricID: "sum-exec-cycles",
		Points:   sizes,
	}
	vals := make([][2]float64, len(sizes))
	var pl plan
	for pi, n := range sizes {
		for ai, a := range [2]Arch{Baseline, BabelFish} {
			pi, ai, a, n := pi, ai, a, n
			pl.add(fmt.Sprintf("group-size/%d/%s", n, a), func() error {
				v, err := groupSizeRun(o, a, n)
				if err != nil {
					return err
				}
				vals[pi][ai] = v
				return nil
			})
		}
	}
	if err := pl.execute(o.Jobs); err != nil {
		return nil, err
	}
	for _, v := range vals {
		res.Base = append(res.Base, v[0])
		res.BF = append(res.BF, v[1])
		res.RedPct = append(res.RedPct, metrics.ReductionPct(v[0], v[1]))
	}
	return res, nil
}

// groupSizeRun measures one (size × arch) point of SweepGroupSize: n
// function containers sharing one sparse runtime on one core, summed
// own-cycles.
func groupSizeRun(o Options, a Arch, n int) (float64, error) {
	oo := o
	oo.Cores = 1
	m := sim.New(oo.Params(a))
	fg, err := workloads.DeployFaaS(m, true, o.Scale, o.Seed)
	if err != nil {
		return 0, err
	}
	names := fg.FunctionNames()
	for j := 0; j < n; j++ {
		if _, _, err := fg.Spawn(names[j%len(names)], 0, o.Seed+uint64(j)); err != nil {
			return 0, err
		}
	}
	if err := m.RunToCompletion(); err != nil {
		return 0, err
	}
	var sum float64
	for _, task := range fg.Tasks {
		if task.LatOwn.Count() > 0 {
			sum += task.LatOwn.Mean()
		}
	}
	return sum, nil
}

// VariantRow compares BabelFish design variants on one workload.
type VariantRow struct {
	Variant string
	MeanLat float64
	RedPct  float64
}

// VariantsResult compares the full design against the paper's documented
// alternatives: ASLR-SW (§IV-D) and the no-PC-bitmask design (§VII-D).
type VariantsResult struct {
	App  string
	Rows []VariantRow
}

// Variants runs the comparison on MongoDB.
func Variants(o Options) (*VariantsResult, error) {
	res := &VariantsResult{App: "mongodb"}
	type variant struct {
		name string
		prep func() sim.Params
	}
	base := o.Params(Baseline)
	vs := []variant{
		{"baseline", func() sim.Params { return base }},
		{"babelfish (ASLR-HW)", func() sim.Params { return o.Params(BabelFish) }},
		{"babelfish (ASLR-SW)", func() sim.Params {
			p := o.Params(BabelFish)
			p.Kernel.ASLR = kernel.ASLRSW
			p.MMU.ASLRHW = false
			return p
		}},
		{"babelfish (no PC bitmask)", func() sim.Params {
			p := o.Params(BabelFish)
			p.Kernel.NoPCBitmask = true
			return p
		}},
		{"babelfish (PMD-level sharing)", func() sim.Params {
			p := o.Params(BabelFish)
			p.Kernel.ShareLevel = memdefs.LvlPMD
			return p
		}},
	}
	lats := make([]float64, len(vs))
	var pl plan
	for i, v := range vs {
		i, v := i, v
		pl.add("variants/"+v.name, func() error {
			lat, err := mongoLatency(o, v.prep(), 2)
			if err != nil {
				return err
			}
			lats[i] = lat
			return nil
		})
	}
	if err := pl.execute(o.Jobs); err != nil {
		return nil, err
	}
	// Row 0 is the baseline; its own reduction is ReductionPct(x, x) = 0,
	// matching the serial order-of-evaluation this code replaced.
	baseLat := lats[0]
	for i, v := range vs {
		res.Rows = append(res.Rows, VariantRow{
			Variant: v.name,
			MeanLat: lats[i],
			RedPct:  metrics.ReductionPct(baseLat, lats[i]),
		})
	}
	return res, nil
}

// SMTResult compares time-multiplexed co-scheduling against SMT
// siblings (the paper's Section III-C: "multiple containers co-scheduled
// on the same physical core, either in SMT mode, or due to an
// over-subscribed system").
type SMTResult struct {
	BaseTM, BaseSMT float64 // baseline mean latency
	BFTM, BFSMT     float64 // babelfish mean latency
	RedTMPct        float64
	RedSMTPct       float64
}

// SweepSMT measures MongoDB under both co-scheduling styles.
func SweepSMT(o Options) (*SMTResult, error) {
	res := &SMTResult{}
	// Four independent cells, each writing a distinct result field.
	cells := []struct {
		label string
		arch  Arch
		smt   bool
		dst   *float64
	}{
		{"smt/baseline/tm", Baseline, false, &res.BaseTM},
		{"smt/baseline/smt", Baseline, true, &res.BaseSMT},
		{"smt/babelfish/tm", BabelFish, false, &res.BFTM},
		{"smt/babelfish/smt", BabelFish, true, &res.BFSMT},
	}
	var pl plan
	for _, c := range cells {
		c := c
		pl.add(c.label, func() error {
			params := o.Params(c.arch)
			params.SMT = c.smt
			v, err := mongoLatency(o, params, 2)
			if err != nil {
				return err
			}
			*c.dst = v
			return nil
		})
	}
	if err := pl.execute(o.Jobs); err != nil {
		return nil, err
	}
	res.RedTMPct = metrics.ReductionPct(res.BaseTM, res.BFTM)
	res.RedSMTPct = metrics.ReductionPct(res.BaseSMT, res.BFSMT)
	return res, nil
}

// String renders the SMT comparison.
func (r *SMTResult) String() string {
	t := metrics.NewTable("Co-scheduling style: time-multiplexed vs SMT siblings (mongodb mean latency)",
		"style", "baseline", "babelfish", "reduction%")
	t.Row("time-multiplexed", r.BaseTM, r.BFTM, r.RedTMPct)
	t.Row("SMT", r.BaseSMT, r.BFSMT, r.RedSMTPct)
	return t.String()
}

// String renders the variant comparison.
func (r *VariantsResult) String() string {
	t := metrics.NewTable(fmt.Sprintf("Design variants on %s (ASLR modes §IV-D; no-bitmask §VII-D)", r.App),
		"variant", "mean-lat", "vs-baseline%")
	for _, row := range r.Rows {
		t.Row(row.Variant, row.MeanLat, row.RedPct)
	}
	var b strings.Builder
	b.WriteString(t.String())
	return b.String()
}
