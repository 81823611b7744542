package experiments

import (
	"fmt"
	"strings"

	"babelfish/internal/metrics"
	"babelfish/internal/sim"
	"babelfish/internal/xlatpolicy"
)

// ArchCompareCell is one (application × architecture) measurement of the
// head-to-head sweep: the paper's co-location setup run under one
// registered translation policy.
type ArchCompareCell struct {
	App       string
	Arch      string
	MeanLat   float64
	P95Lat    float64
	MPKIData  float64
	MPKIInstr float64
	// WalksPKI is hardware page walks per kilo-instruction — the reach
	// metric the Victima and coalesced policies attack directly (a policy
	// hit resolves an L2 TLB miss without walking).
	WalksPKI float64
	Faults   uint64
}

// ArchCompareResult is the fig_archcompare sweep: every requested
// architecture measured on every workload, cells indexed [app][arch].
type ArchCompareResult struct {
	Archs []string
	Apps  []string
	Cells [][]ArchCompareCell
}

// ArchCompare runs the head-to-head sweep on the plan engine: one cell
// per (workload × architecture), each with its own machine, in the
// paper's two-containers-per-core co-location. archs are registry names
// (see internal/xlatpolicy); an empty list sweeps every registered
// architecture. Cells are independent, so results are byte-identical at
// any Options.Jobs width.
func ArchCompare(o Options, archs []string) (*ArchCompareResult, error) {
	if len(archs) == 0 {
		archs = xlatpolicy.Names()
	}
	params := make([]sim.Params, len(archs))
	for j, name := range archs {
		p, err := o.ParamsForArch(name)
		if err != nil {
			return nil, err
		}
		params[j] = p
	}
	specs := append(ServingApps(), ComputeApps()...)
	res := &ArchCompareResult{Archs: archs}
	res.Cells = make([][]ArchCompareCell, len(specs))
	var pl plan
	for i, spec := range specs {
		res.Apps = append(res.Apps, spec.Name)
		res.Cells[i] = make([]ArchCompareCell, len(archs))
		for j := range archs {
			i, j, spec := i, j, spec
			pl.add(fmt.Sprintf("archcompare/%s/%s", spec.Name, archs[j]), func() error {
				c, err := servingRun(o, params[j], spec)
				if err != nil {
					return err
				}
				res.Cells[i][j] = ArchCompareCell{
					App:       spec.Name,
					Arch:      archs[j],
					MeanLat:   c.meanLat,
					P95Lat:    c.p95Lat,
					MPKIData:  c.agg.MPKIData(),
					MPKIInstr: c.agg.MPKIInstr(),
					WalksPKI:  metrics.MPKI(c.agg.Walks, c.agg.Instrs),
					Faults:    c.agg.Faults,
				}
				return nil
			})
		}
	}
	if err := pl.execute(o.Jobs); err != nil {
		return nil, err
	}
	return res, nil
}

// String renders the head-to-head table plus a per-app winner summary.
func (r *ArchCompareResult) String() string {
	t := metrics.NewTable(
		fmt.Sprintf("Architecture head-to-head: %d policies x %d workloads", len(r.Archs), len(r.Apps)),
		"app", "arch", "meanLat", "p95Lat", "mpkiD", "mpkiI", "walksPKI", "faults")
	for i := range r.Cells {
		for _, c := range r.Cells[i] {
			t.Row(c.App, c.Arch, c.MeanLat, c.P95Lat, c.MPKIData, c.MPKIInstr, c.WalksPKI, c.Faults)
		}
	}
	var b strings.Builder
	b.WriteString(t.String())
	b.WriteString("\n")
	w := metrics.NewTable("Winner by mean request latency", "app", "winner", "meanLat", "runner-up", "delta%")
	for i := range r.Cells {
		row := r.Cells[i]
		if len(row) == 0 {
			continue
		}
		best, second := 0, -1
		for j := 1; j < len(row); j++ {
			switch {
			case row[j].MeanLat < row[best].MeanLat:
				second = best
				best = j
			case second < 0 || row[j].MeanLat < row[second].MeanLat:
				second = j
			}
		}
		if second < 0 {
			w.Row(row[best].App, row[best].Arch, row[best].MeanLat, "-", 0.0)
			continue
		}
		delta := 0.0
		if row[best].MeanLat > 0 {
			delta = (row[second].MeanLat - row[best].MeanLat) / row[best].MeanLat * 100
		}
		w.Row(row[best].App, row[best].Arch, row[best].MeanLat, row[second].Arch, delta)
	}
	b.WriteString(w.String())
	return b.String()
}
