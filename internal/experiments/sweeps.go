package experiments

import (
	"fmt"

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

// SweepColocation varies the number of containers per core (the paper
// argues its 2-3 per core is conservative — container environments are
// typically oversubscribed — so BabelFish's gains should grow with
// density; EXPERIMENTS.md records the measured gains, which are not
// monotone). Each point is a serving run; the 2-per-core point is the
// run Figure 11 reads.
func SweepColocation(o Options, perCore []int) (*SweepResult, error) {
	return alone(o, func(s *Suite, o Options) func() *SweepResult { return s.SweepColocation(o, perCore) })
}

// SweepColocation declares the sweep's cells on s.
func (s *Suite) SweepColocation(o Options, perCore []int) func() *SweepResult {
	if len(perCore) == 0 {
		perCore = []int{1, 2, 4, 6}
	}
	return s.sweep(SweepResult{
		Name:     "Sensitivity: containers per core (paper §VI: 2/core is conservative)",
		Param:    "containers/core",
		MetricID: "mean-lat",
		Points:   perCore,
	}, func(a Arch, n int) *float64 {
		return &s.serve(o, a.String(), o.Params(a), workloads.MongoDB(), n).meanLat
	})
}

// SweepGroupSize varies the number of function containers sharing one
// runtime image on a single core and reports total completion cycles —
// the more sharers, the more redundant faults BabelFish removes.
func SweepGroupSize(o Options, sizes []int) (*SweepResult, error) {
	return alone(o, func(s *Suite, o Options) func() *SweepResult { return s.SweepGroupSize(o, sizes) })
}

// SweepGroupSize declares the sweep's cells on s.
func (s *Suite) SweepGroupSize(o Options, sizes []int) func() *SweepResult {
	if len(sizes) == 0 {
		sizes = []int{1, 2, 4, 8}
	}
	return s.sweep(SweepResult{
		Name:     "Sensitivity: function containers sharing one runtime (1 core)",
		Param:    "containers",
		MetricID: "sum-exec-cycles",
		Points:   sizes,
	}, func(a Arch, n int) *float64 {
		v := new(float64)
		s.own.add(fmt.Sprintf("group-size/%d/%s", n, a), func() (err error) {
			*v, _, _, _, err = faasWaves(o, a, 1, n)
			return err
		})
		return v
	})
}

// sweep declares, through point, the cell measuring each point of res
// under each architecture, and returns res with the measured columns
// read from the slots point returns.
func (s *Suite) sweep(res SweepResult, point func(a Arch, n int) *float64) func() *SweepResult {
	vals := make([][2]*float64, len(res.Points))
	for pi, n := range res.Points {
		for ai, a := range [2]Arch{Baseline, BabelFish} {
			vals[pi][ai] = point(a, n)
		}
	}
	return func() *SweepResult {
		r := res
		for _, v := range vals {
			r.Base = append(r.Base, *v[0])
			r.BF = append(r.BF, *v[1])
			r.RedPct = append(r.RedPct, metrics.ReductionPct(*v[0], *v[1]))
		}
		return &r
	}
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
func Variants(o Options) (*VariantsResult, error) { return alone(o, (*Suite).Variants) }

// Variants declares the comparison's serving runs on s, one per variant;
// the baseline and ASLR-HW rows are the runs Figure 11 reads.
func (s *Suite) Variants(o Options) func() *VariantsResult {
	aslrSW := o.Params(BabelFish)
	aslrSW.Kernel.ASLR = kernel.ASLRSW
	aslrSW.MMU.ASLRHW = false
	noMask := o.Params(BabelFish)
	noMask.Kernel.NoPCBitmask = true
	pmd := o.Params(BabelFish)
	pmd.Kernel.ShareLevel = memdefs.LvlPMD
	vs := []struct {
		name string
		p    sim.Params
	}{
		{"baseline", o.Params(Baseline)},
		{"babelfish (ASLR-HW)", o.Params(BabelFish)},
		{"babelfish (ASLR-SW)", aslrSW},
		{"babelfish (no PC bitmask)", noMask},
		{"babelfish (PMD-level sharing)", pmd},
	}
	cells := make([]*servingCell, len(vs))
	for i, v := range vs {
		cells[i] = s.serve(o, v.name, v.p, workloads.MongoDB(), paperPerCore)
	}
	return func() *VariantsResult {
		// Row 0 is the baseline; its own reduction is ReductionPct(x, x) = 0.
		res := &VariantsResult{App: "mongodb"}
		for i, v := range vs {
			res.Rows = append(res.Rows, VariantRow{
				Variant: v.name,
				MeanLat: cells[i].meanLat,
				RedPct:  metrics.ReductionPct(cells[0].meanLat, cells[i].meanLat),
			})
		}
		return res
	}
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
func SweepSMT(o Options) (*SMTResult, error) { return alone(o, (*Suite).SweepSMT) }

// SweepSMT declares the comparison's four serving runs on s; the
// time-multiplexed ones are the runs Figure 11 reads.
func (s *Suite) SweepSMT(o Options) func() *SMTResult {
	var tm, smt [2]*servingCell
	for i, a := range [2]Arch{Baseline, BabelFish} {
		tm[i] = s.servePaper(o, a, workloads.MongoDB())
		p := o.Params(a)
		p.SMT = true
		smt[i] = s.serve(o, a.String()+"+SMT", p, workloads.MongoDB(), paperPerCore)
	}
	return func() *SMTResult {
		return &SMTResult{
			BaseTM: tm[0].meanLat, BaseSMT: smt[0].meanLat,
			BFTM: tm[1].meanLat, BFSMT: smt[1].meanLat,
			RedTMPct:  metrics.ReductionPct(tm[0].meanLat, tm[1].meanLat),
			RedSMTPct: metrics.ReductionPct(smt[0].meanLat, smt[1].meanLat),
		}
	}
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
	return t.String()
}
