package experiments

import (
	"cmp"
	"fmt"
	"strings"

	"babelfish/internal/metrics"
	"babelfish/internal/sim"
	"babelfish/internal/workloads"
	"babelfish/internal/xlatpolicy"
)

// ArchCompareCell is one (application × architecture) measurement of the
// head-to-head sweep: the paper's co-location setup run under one
// translation architecture.
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

// ArchCompare runs the head-to-head sweep on the plan engine: one serving
// run per (workload × architecture), each with its own machine, in the
// paper's two-containers-per-core co-location. archs are architecture
// names (see internal/xlatpolicy); an empty list sweeps every
// architecture, and an unknown name fails before any cell runs. Cells
// are independent, so results are byte-identical at any Options.Jobs.
func ArchCompare(o Options, archs []string) (*ArchCompareResult, error) {
	return alone(o, func(s *Suite, o Options) func() *ArchCompareResult { return s.ArchCompare(o, archs) })
}

// ArchCompare declares the sweep's serving runs on s; its baseline and
// babelfish runs are the ones the paper's figures read.
func (s *Suite) ArchCompare(o Options, archs []string) func() *ArchCompareResult {
	if len(archs) == 0 {
		archs = xlatpolicy.Names()
	}
	params, ok := s.archParams(o, archs)
	if !ok {
		return nil
	}
	specs := workloads.Apps()
	runs := make([][]*servingCell, len(specs))
	for i, spec := range specs {
		for j, name := range archs {
			runs[i] = append(runs[i], s.serve(o, name, params[j], spec, paperPerCore))
		}
	}
	return func() *ArchCompareResult {
		res := &ArchCompareResult{Archs: archs}
		for i, spec := range specs {
			res.Apps = append(res.Apps, spec.Name)
			res.Cells = append(res.Cells, nil)
			for j, c := range runs[i] {
				res.Cells[i] = append(res.Cells[i], ArchCompareCell{
					App:       spec.Name,
					Arch:      archs[j],
					MeanLat:   c.meanLat,
					P95Lat:    c.p95Lat,
					MPKIData:  c.agg.MPKIData(),
					MPKIInstr: c.agg.MPKIInstr(),
					WalksPKI:  metrics.MPKI(c.agg.Walks, c.agg.Instrs),
					Faults:    c.agg.Faults,
				})
			}
		}
		return res
	}
}

// archParams resolves each architecture name under o, or records the
// first unknown one as s's failed declaration and reports false.
func (s *Suite) archParams(o Options, archs []string) ([]sim.Params, bool) {
	params := make([]sim.Params, len(archs))
	for j, name := range archs {
		p, err := o.ParamsForArch(name)
		if err != nil {
			s.err = cmp.Or(s.err, err)
			return nil, false
		}
		params[j] = p
	}
	return params, true
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
