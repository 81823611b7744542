package experiments

import (
	"strings"

	"babelfish/internal/metrics"
	"babelfish/internal/sim"
	"babelfish/internal/workloads"
)

// Fig10Row holds one application's L2 TLB numbers for both figures:
// MPKI reduction (10a) and shared-hit fraction (10b).
type Fig10Row struct {
	App   string
	Class string

	BaseMPKID, BaseMPKII float64
	BFMPKID, BFMPKII     float64
	RedMPKIDPct          float64 // Figure 10a, data
	RedMPKIIPct          float64 // Figure 10a, instruction
	SharedHitD           float64 // Figure 10b, data (fraction of hits)
	SharedHitI           float64 // Figure 10b, instruction
}

// Fig10Result carries all rows plus the per-class averages the paper
// quotes (data serving: D −66%, I −96%).
type Fig10Result struct {
	Rows []Fig10Row
}

// Fig10 runs every workload under Baseline and BabelFish and reports L2
// TLB MPKI reductions and shared-hit fractions.
func Fig10(o Options) (*Fig10Result, error) { return new(Suite).Fig10(o) }

// Fig10 is the package-level Fig10 with its serving runs shared through s.
func (s *Suite) Fig10(o Options) (*Fig10Result, error) {
	specs := append(ServingApps(), ComputeApps()...)
	// One cell per (app × arch); the last pair is the dense function
	// variant (the MPKI behaviour is dominated by the shared runtime; the
	// paper reports smaller function reductions).
	type pair struct{ base, bf sim.AggStats }
	pairs := make([]pair, len(specs)+1)
	var pl plan
	for i, spec := range specs {
		i, spec := i, spec
		pl.add("fig10/"+spec.Name+"/base", s.cell(o, Baseline, spec, func(c servingCell) { pairs[i].base = c.agg }))
		pl.add("fig10/"+spec.Name+"/babelfish", s.cell(o, BabelFish, spec, func(c servingCell) { pairs[i].bf = c.agg }))
	}
	fi := len(specs)
	pl.add("fig10/functions/base", func() error {
		ag, err := fig10FunctionsRun(o, Baseline)
		if err != nil {
			return err
		}
		pairs[fi].base = ag
		return nil
	})
	pl.add("fig10/functions/babelfish", func() error {
		ag, err := fig10FunctionsRun(o, BabelFish)
		if err != nil {
			return err
		}
		pairs[fi].bf = ag
		return nil
	})
	if err := pl.execute(o.Jobs); err != nil {
		return nil, err
	}
	res := &Fig10Result{}
	for i, spec := range specs {
		res.Rows = append(res.Rows, fig10Row(spec.Name, spec.Class.String(), pairs[i].base, pairs[i].bf))
	}
	res.Rows = append(res.Rows, fig10Row("functions", "function", pairs[fi].base, pairs[fi].bf))
	return res, nil
}

func fig10FunctionsRun(o Options, a Arch) (sim.AggStats, error) {
	m := sim.New(o.Params(a))
	fg, err := workloads.DeployFaaS(m, false, o.Scale, o.Seed)
	if err != nil {
		return sim.AggStats{}, err
	}
	for core := 0; core < o.Cores; core++ {
		for i, name := range fg.FunctionNames() {
			if _, _, err := fg.Spawn(name, core, o.Seed+uint64(core*97+i)); err != nil {
				return sim.AggStats{}, err
			}
		}
	}
	if err := m.RunToCompletion(); err != nil {
		return sim.AggStats{}, err
	}
	return m.Aggregate(), nil
}

func fig10Row(name, class string, ab, af sim.AggStats) Fig10Row {
	return Fig10Row{
		App:         name,
		Class:       class,
		BaseMPKID:   ab.MPKIData(),
		BaseMPKII:   ab.MPKIInstr(),
		BFMPKID:     af.MPKIData(),
		BFMPKII:     af.MPKIInstr(),
		RedMPKIDPct: metrics.ReductionPct(ab.MPKIData(), af.MPKIData()),
		RedMPKIIPct: metrics.ReductionPct(ab.MPKIInstr(), af.MPKIInstr()),
		SharedHitD:  af.SharedHitFracD(),
		SharedHitI:  af.SharedHitFracI(),
	}
}

// ClassAverages returns the average MPKI reductions per workload class.
func (r *Fig10Result) ClassAverages() map[string][2]float64 {
	sums := map[string][3]float64{}
	for _, row := range r.Rows {
		s := sums[row.Class]
		s[0] += row.RedMPKIDPct
		s[1] += row.RedMPKIIPct
		s[2]++
		sums[row.Class] = s
	}
	out := map[string][2]float64{}
	for k, s := range sums {
		out[k] = [2]float64{s[0] / s[2], s[1] / s[2]}
	}
	return out
}

// String renders both Figure 10a and 10b tables.
func (r *Fig10Result) String() string {
	var b strings.Builder
	ta := metrics.NewTable("Figure 10a: L2 TLB MPKI reduction (paper: data-serving D -66% / I -96%)",
		"app", "class", "baseD", "bfD", "redD%", "baseI", "bfI", "redI%")
	for _, row := range r.Rows {
		ta.Row(row.App, row.Class, row.BaseMPKID, row.BFMPKID, row.RedMPKIDPct,
			row.BaseMPKII, row.BFMPKII, row.RedMPKIIPct)
	}
	b.WriteString(ta.String())
	b.WriteString("\n")
	tb := metrics.NewTable("Figure 10b: shared hits as fraction of L2 TLB hits (paper: e.g. GraphChi 0.48 I / 0.12 D)",
		"app", "sharedHitD", "sharedHitI")
	for _, row := range r.Rows {
		tb.Row(row.App, row.SharedHitD, row.SharedHitI)
	}
	b.WriteString(tb.String())
	return b.String()
}
