package experiments

import (
	"encoding/json"
	"fmt"
	"io"
)

// Report is the machine-readable form of a full experiment run, suitable
// for plotting pipelines (bfbench -format json).
type Report struct {
	Options Options `json:"options"`

	Fig7      *Fig7Result      `json:"fig7,omitempty"`
	Fig9      *Fig9Result      `json:"fig9,omitempty"`
	Fig10     *Fig10Result     `json:"fig10,omitempty"`
	Fig11     *Fig11Summary    `json:"fig11,omitempty"`
	TableII   []TableIIRow     `json:"tableII,omitempty"`
	TableIII  *TableIIIResult  `json:"tableIII,omitempty"`
	LargerTLB *LargerTLBResult `json:"largerTLB,omitempty"`
	Bringup   *BringupResult   `json:"bringup,omitempty"`
	Resources *ResourcesResult `json:"resources,omitempty"`
}

// Fig11Summary flattens Fig11Result for export (triples are internal).
type Fig11Summary struct {
	ServingMeanRedPct map[string]float64 `json:"servingMeanRedPct"`
	ServingTailRedPct map[string]float64 `json:"servingTailRedPct"`
	ComputeRedPct     map[string]float64 `json:"computeRedPct"`
	DenseRedPct       map[string]float64 `json:"denseRedPct"`
	SparseRedPct      map[string]float64 `json:"sparseRedPct"`
	MeanServing       float64            `json:"meanServing"`
	TailServing       float64            `json:"tailServing"`
	Compute           float64            `json:"compute"`
	Dense             float64            `json:"dense"`
	Sparse            float64            `json:"sparse"`
}

// TableIIRow is one exported attribution row.
type TableIIRow struct {
	Workload    string  `json:"workload"`
	TLBFraction float64 `json:"tlbFraction"`
}

// Summarize converts a Fig11Result for export.
func (r *Fig11Result) Summarize() *Fig11Summary {
	s := &Fig11Summary{
		ServingMeanRedPct: map[string]float64{},
		ServingTailRedPct: map[string]float64{},
		ComputeRedPct:     map[string]float64{},
		DenseRedPct:       map[string]float64{},
		SparseRedPct:      map[string]float64{},
		MeanServing:       r.MeanServingReduction(),
		TailServing:       r.TailServingReduction(),
		Compute:           r.ComputeReduction(),
		Dense:             r.DenseReduction(),
		Sparse:            r.SparseReduction(),
	}
	for i, app := range r.ServingApps {
		s.ServingMeanRedPct[app] = r.ServingMean[i].reductionPct()
		s.ServingTailRedPct[app] = r.ServingTail[i].reductionPct()
	}
	for i, app := range r.ComputeApps {
		s.ComputeRedPct[app] = r.ComputeExec[i].reductionPct()
	}
	for i, fn := range r.FuncNames {
		if i < len(r.DenseExec) {
			s.DenseRedPct[fn] = r.DenseExec[i].reductionPct()
		}
		if i < len(r.SparseExec) {
			s.SparseRedPct[fn] = r.SparseExec[i].reductionPct()
		}
	}
	return s
}

// AttributionRows exports Table II.
func (r *Fig11Result) AttributionRows() []TableIIRow {
	var rows []TableIIRow
	for i, app := range r.ServingApps {
		rows = append(rows, TableIIRow{app, r.ServingMean[i].tlbFraction()})
	}
	for i, app := range r.ComputeApps {
		rows = append(rows, TableIIRow{app, r.ComputeExec[i].tlbFraction()})
	}
	for i, fn := range r.FuncNames {
		if i < len(r.DenseExec) {
			rows = append(rows, TableIIRow{fn + "-dense", r.DenseExec[i].tlbFraction()})
		}
		if i < len(r.SparseExec) {
			rows = append(rows, TableIIRow{fn + "-sparse", r.SparseExec[i].tlbFraction()})
		}
	}
	return rows
}

// RunAll executes every experiment as one plan and collects the report.
func RunAll(o Options) (*Report, error) { return alone(o, (*Suite).Report) }

// Report declares every section of the pinned suite on s.
func (s *Suite) Report(o Options) func() *Report {
	fig7, fig9, fig10, fig11 := s.Fig7(o), s.Fig9(o), s.Fig10(o), s.Fig11(o)
	larger, bringup, resources := s.LargerTLB(o), s.Bringup(o), s.Resources(o)
	return func() *Report {
		f11 := fig11()
		return &Report{
			Options: o, Fig7: fig7(), Fig9: fig9(), Fig10: fig10(),
			Fig11: f11.Summarize(), TableII: f11.AttributionRows(), TableIII: TableIII(),
			LargerTLB: larger(), Bringup: bringup(), Resources: resources(),
		}
	}
}

// WriteJSON emits the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteMarkdown renders the report as a compact paper-vs-measured
// markdown summary (the generator behind EXPERIMENTS.md's numbers).
func (r *Report) WriteMarkdown(w io.Writer) error {
	p := func(format string, args ...interface{}) { fmt.Fprintf(w, format, args...) }
	p("# BabelFish reproduction report\n\n")
	p("Options: %d cores, scale %.2f, seed %d, %d/%d warm/measure instructions per core.\n\n",
		r.Options.Cores, r.Options.Scale, r.Options.Seed, r.Options.WarmInstr, r.Options.MeasureInstr)

	if r.Fig9 != nil {
		p("## Figure 9 — pte_t shareability\n\n")
		p("| app | total | shareable | unshareable | THP | active | BF-active | shareable%% | active red%% |\n")
		p("|---|---|---|---|---|---|---|---|---|\n")
		for _, row := range r.Fig9.Rows {
			p("| %s | %d | %d | %d | %d | %d | %d | %.1f | %.1f |\n",
				row.App, row.Total, row.TotalShareable, row.TotalUnshare, row.TotalTHP,
				row.Active, row.BabelFishActive, row.ShareablePct, row.ActiveReduction)
		}
		p("\nContainerized average %.1f%% shareable (paper: 53%%); functions %.1f%% (paper: ~93%%).\n\n",
			r.Fig9.ContainerShareablePct, r.Fig9.FunctionShareablePct)
	}
	if r.Fig10 != nil {
		p("## Figure 10 — L2 TLB MPKI and shared hits\n\n")
		p("| app | base D | BF D | red%% | base I | BF I | red%% | sharedHit D | sharedHit I |\n")
		p("|---|---|---|---|---|---|---|---|---|\n")
		for _, row := range r.Fig10.Rows {
			p("| %s | %.2f | %.2f | %.1f | %.2f | %.2f | %.1f | %.2f | %.2f |\n",
				row.App, row.BaseMPKID, row.BFMPKID, row.RedMPKIDPct,
				row.BaseMPKII, row.BFMPKII, row.RedMPKIIPct, row.SharedHitD, row.SharedHitI)
		}
		p("\n")
	}
	if r.Fig11 != nil {
		p("## Figure 11 — reductions (paper: serving -11%%/-18%%, compute -11%%, dense -10%%, sparse -55%%)\n\n")
		p("- serving mean: **%.1f%%**, tail: **%.1f%%**\n", r.Fig11.MeanServing, r.Fig11.TailServing)
		p("- compute: **%.1f%%**\n", r.Fig11.Compute)
		p("- functions dense: **%.1f%%**, sparse: **%.1f%%**\n\n", r.Fig11.Dense, r.Fig11.Sparse)
	}
	if len(r.TableII) > 0 {
		p("## Table II — TLB fraction of the gain\n\n| workload | fraction |\n|---|---|\n")
		for _, row := range r.TableII {
			p("| %s | %.2f |\n", row.Workload, row.TLBFraction)
		}
		p("\n")
	}
	if r.Bringup != nil {
		p("## Bring-up\n\n`docker start` reduction: **%.1f%%** (paper: 8%%).\n\n", r.Bringup.ReductionPct)
	}
	if r.Resources != nil {
		p("## Resources\n\narea %.2f%% (paper 0.4%%), space %.3f%% (paper 0.238%%).\n",
			r.Resources.AreaPct, r.Resources.TotalPct)
	}
	return nil
}
