package experiments

import (
	"strings"

	"babelfish/internal/kernel"
	"babelfish/internal/metrics"
	"babelfish/internal/sim"
	"babelfish/internal/workloads"
)

// Fig9Row is one application's pte_t shareability census (Figure 9): the
// paper's three bars (Total, Active, BabelFish-Active), each split into
// shareable / unshareable / THP.
type Fig9Row struct {
	App string

	Total          int
	TotalShareable int
	TotalUnshare   int
	TotalTHP       int

	Active          int
	ActiveShareable int
	ActiveUnshare   int
	ActiveTHP       int

	BabelFishActive int

	ShareablePct    float64
	ActiveReduction float64 // % of active pte_ts BabelFish eliminates
}

// Fig9Result aggregates the census rows.
type Fig9Result struct {
	Rows []Fig9Row
	// Averages per the paper's headline numbers.
	ContainerShareablePct float64 // paper: 53%
	FunctionShareablePct  float64 // paper: ~93-94% shareable translations
	ContainerActiveRed    float64 // paper: 30%
	FunctionActiveRed     float64 // paper: 57%
}

// Fig9 measures pte_t shareability with the paper's setup: two containers
// of each data-serving/compute application, three function containers —
// all on a baseline kernel (the paper measured natively with Pagemap),
// with an Accessed-bit epoch standing in for the active-LRU census.
func Fig9(o Options) (*Fig9Result, error) { return alone(o, (*Suite).Fig9) }

// Fig9 declares the census cells on s, one per app plus the functions.
func (s *Suite) Fig9(o Options) func() *Fig9Result {
	apps := workloads.Apps()
	rows := make([]Fig9Row, len(apps)+1)
	for i, spec := range apps {
		s.own.add("fig9/"+spec.Name, func() (err error) {
			rows[i], err = fig9App(o, spec)
			return err
		})
	}
	s.own.add("fig9/functions", func() (err error) {
		rows[len(apps)], err = fig9Functions(o)
		return err
	})
	return func() *Fig9Result {
		res := &Fig9Result{Rows: rows}
		var cSh, cRed float64
		for _, r := range rows[:len(apps)] {
			cSh += r.ShareablePct
			cRed += r.ActiveReduction
		}
		n := float64(len(apps))
		res.ContainerShareablePct = cSh / n
		res.ContainerActiveRed = cRed / n
		res.FunctionShareablePct = rows[len(apps)].ShareablePct
		res.FunctionActiveRed = rows[len(apps)].ActiveReduction
		return res
	}
}

// fig9App runs one app with 2 containers on one core.
func fig9App(o Options, spec *workloads.AppSpec) (Fig9Row, error) {
	oo := o
	oo.Cores = 1
	m := sim.New(oo.Params(Baseline))
	d, err := workloads.Deploy(m, spec, o.Scale, o.Seed)
	if err != nil {
		return Fig9Row{}, err
	}
	for j := 0; j < 2; j++ {
		if _, _, err := d.Spawn(0, o.Seed+uint64(j*131)); err != nil {
			return Fig9Row{}, err
		}
	}
	// Bring the containers to steady state, then census a fresh epoch.
	if err := m.Run(o.WarmInstr + o.MeasureInstr); err != nil {
		return Fig9Row{}, err
	}
	m.Kernel.ClearAccessed(d.Group)
	if err := m.Run(o.MeasureInstr); err != nil {
		return Fig9Row{}, err
	}
	c := m.Kernel.CharacterizeGroup(d.Group)
	return fig9RowFrom(spec.Name, c), nil
}

// fig9Functions runs the three functions on one core.
func fig9Functions(o Options) (Fig9Row, error) {
	oo := o
	oo.Cores = 1
	m := sim.New(oo.Params(Baseline))
	fg, err := workloads.DeployFaaS(m, false, o.Scale, o.Seed)
	if err != nil {
		return Fig9Row{}, err
	}
	for i, name := range fg.FunctionNames() {
		if _, _, err := fg.Spawn(name, 0, o.Seed+uint64(i*31)); err != nil {
			return Fig9Row{}, err
		}
	}
	if err := m.RunToCompletion(); err != nil {
		return Fig9Row{}, err
	}
	c := m.Kernel.CharacterizeGroup(fg.Group)
	return fig9RowFrom("functions", c), nil
}

func fig9RowFrom(name string, c kernel.Characterization) Fig9Row {
	return Fig9Row{
		App:             name,
		Total:           c.Total,
		TotalShareable:  c.TotalShareable,
		TotalUnshare:    c.TotalUnshare,
		TotalTHP:        c.TotalTHP,
		Active:          c.Active,
		ActiveShareable: c.ActiveShareable,
		ActiveUnshare:   c.ActiveUnshare,
		ActiveTHP:       c.ActiveTHP,
		BabelFishActive: c.FusedActive,
		ShareablePct:    c.ShareablePct(),
		ActiveReduction: c.ActiveReductionPct(),
	}
}

// String renders the Figure 9 table.
func (r *Fig9Result) String() string {
	t := metrics.NewTable("Figure 9: page table (pte_t) sharing characterization",
		"app", "total", "share", "unshare", "thp", "active", "bf-active", "share%", "activeRed%")
	for _, row := range r.Rows {
		t.Row(row.App, row.Total, row.TotalShareable, row.TotalUnshare, row.TotalTHP,
			row.Active, row.BabelFishActive, row.ShareablePct, row.ActiveReduction)
	}
	var b strings.Builder
	b.WriteString(t.String())
	b.WriteString("\n")
	bt := metrics.NewTable("Figure 9 summary (paper: containers 53% shareable / 30% active reduction; functions ~93% / 57%)",
		"class", "shareable%", "activeReduction%")
	bt.Row("containerized", r.ContainerShareablePct, r.ContainerActiveRed)
	bt.Row("functions", r.FunctionShareablePct, r.FunctionActiveRed)
	b.WriteString(bt.String())
	return b.String()
}
