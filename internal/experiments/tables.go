package experiments

import (
	"fmt"
	"strings"

	"babelfish/internal/cacti"
	"babelfish/internal/memdefs"
	"babelfish/internal/metrics"
	"babelfish/internal/sim"
	"babelfish/internal/workloads"
)

// TableIResult prints the architectural parameters (Table I) as the
// simulator actually configures them.
type TableIResult struct{ P sim.Params }

// TableI reports the modeled configuration.
func TableI(o Options) *TableIResult {
	return &TableIResult{P: o.Params(BabelFish)}
}

// String renders Table I.
func (r *TableIResult) String() string {
	p := r.P
	t := metrics.NewTable("Table I: architectural parameters (as configured)",
		"parameter", "value")
	t.Row("cores", p.Cores)
	t.Row("L1 (D,I) cache", fmt.Sprintf("%dKB, %d way, %d cycle AT", p.Hier.L1D.SizeBytes>>10, p.Hier.L1D.Ways, p.Hier.L1D.AccessTime))
	t.Row("L2 cache", fmt.Sprintf("%dKB, %d way, %d cycle AT", p.Hier.L2.SizeBytes>>10, p.Hier.L2.Ways, p.Hier.L2.AccessTime))
	t.Row("L3 cache", fmt.Sprintf("%dMB, %d way, shared, %d cycle AT", p.L3.SizeBytes>>20, p.L3.Ways, p.L3.AccessTime))
	t.Row("L1 (D,I) TLB 4KB", "64 entries, 4 way, 1 cycle AT")
	t.Row("L1 (D) TLB 2MB", "32 entries, 4 way, 1 cycle AT")
	t.Row("L1 (D) TLB 1GB", "4 entries, FA, 1 cycle AT")
	t.Row("ASLR transform", fmt.Sprintf("%d cycles on L1 TLB miss", p.MMU.ASLRXformCycles))
	t.Row("L2 TLB (4KB/2MB)", "1536 entries, 12 way, 10 or 12 cycle AT")
	t.Row("L2 TLB (1GB)", "16 entries, 4 way, 10 or 12 cycle AT")
	t.Row("page walk cache", "16 entries/level, 4 way, 1 cycle AT")
	t.Row("memory", fmt.Sprintf("%dGB; %d channels; %d ranks/chan; %d banks/rank",
		p.MemBytes>>30, p.DRAM.Channels, p.DRAM.RanksPerChan, p.DRAM.BanksPerRank))
	t.Row("scheduling quantum", fmt.Sprintf("%d cycles", p.Quantum))
	t.Row("PC bitmask; PCID; CCID", fmt.Sprintf("%d bits; %d bits; %d bits",
		memdefs.PCBitmaskBits, memdefs.PCIDBits, memdefs.CCIDBits))
	return t.String()
}

// TableIIIResult is the CACTI-surrogate comparison of the L2 TLB.
type TableIIIResult struct {
	Base, BF cacti.Result
}

// TableIII evaluates the L2 TLB at 22nm.
func TableIII() *TableIIIResult {
	return &TableIIIResult{Base: cacti.BaselineL2(), BF: cacti.BabelFishL2()}
}

// String renders Table III.
func (r *TableIIIResult) String() string {
	t := metrics.NewTable("Table III: L2 TLB parameters at 22nm (paper: baseline 0.030mm2/327ps/10.22pJ/4.16mW; BabelFish 0.062mm2/456ps/21.97pJ/6.22mW)",
		"configuration", "area(mm2)", "accessTime(ps)", "dynEnergy(pJ)", "leakage(mW)")
	t.Row("Baseline", fmt.Sprintf("%.3f", r.Base.AreaMM2), fmt.Sprintf("%.0f", r.Base.AccessPS),
		r.Base.DynEnergy, r.Base.LeakageMW)
	t.Row("BabelFish", fmt.Sprintf("%.3f", r.BF.AreaMM2), fmt.Sprintf("%.0f", r.BF.AccessPS),
		r.BF.DynEnergy, r.BF.LeakageMW)
	return t.String()
}

// LargerTLBResult compares the §VII-C alternative: spending BabelFish's
// tag bits on a larger conventional L2 TLB.
type LargerTLBResult struct {
	Apps         []string
	Classes      []string
	LargerRed    []float64 // latency/exec reduction of Baseline+LargerTLB vs Baseline
	BabelFishRed []float64
}

// LargerTLB runs data-serving and compute apps under Baseline,
// Baseline+LargerTLB and BabelFish.
func LargerTLB(o Options) (*LargerTLBResult, error) { return new(Suite).LargerTLB(o) }

// LargerTLB is the package-level LargerTLB with its serving runs shared
// through s.
func (s *Suite) LargerTLB(o Options) (*LargerTLBResult, error) {
	res := &LargerTLBResult{}
	specs := append(ServingApps(), ComputeApps()...)
	vals := make([][3]float64, len(specs))
	var pl plan
	for si, spec := range specs {
		for ai, a := range [3]Arch{Baseline, BaselineLargerTLB, BabelFish} {
			si, ai, a, spec := si, ai, a, spec
			pl.add("larger-tlb/"+spec.Name+"/"+a.String(), s.cell(o, a, spec, func(c servingCell) {
				vals[si][ai] = c.meanLat
			}))
		}
	}
	if err := pl.execute(o.Jobs); err != nil {
		return nil, err
	}
	for si, spec := range specs {
		res.Apps = append(res.Apps, spec.Name)
		res.Classes = append(res.Classes, spec.Class.String())
		res.LargerRed = append(res.LargerRed, metrics.ReductionPct(vals[si][0], vals[si][1]))
		res.BabelFishRed = append(res.BabelFishRed, metrics.ReductionPct(vals[si][0], vals[si][2]))
	}
	return res, nil
}

// String renders the comparison.
func (r *LargerTLBResult) String() string {
	t := metrics.NewTable("§VII-C: larger conventional L2 TLB vs BabelFish (paper: larger TLB gains only 2.1%/0.6% vs BabelFish's 11%/11%)",
		"app", "class", "largerTLB red%", "babelfish red%")
	for i := range r.Apps {
		t.Row(r.Apps[i], r.Classes[i], r.LargerRed[i], r.BabelFishRed[i])
	}
	return t.String()
}

// BringupResult measures `docker start` for a function container.
type BringupResult struct {
	BaseCycles, BFCycles struct {
		Engine, Fork, Touch, Total memdefs.Cycles
	}
	ReductionPct float64
}

// Bringup starts a warm FaaS group (functions already ran once), then
// measures the bring-up of one more container under both architectures —
// the paper's 8% reduction, bounded by the fixed Docker-engine overheads.
func Bringup(o Options) (*BringupResult, error) {
	res := &BringupResult{}
	var pl plan
	for _, a := range [2]Arch{Baseline, BabelFish} {
		a := a
		slot := &res.BaseCycles
		if a == BabelFish {
			slot = &res.BFCycles
		}
		pl.add("bringup/"+a.String(), func() error {
			oo := o
			oo.Cores = 1
			m := sim.New(oo.Params(a))
			fg, err := workloads.DeployFaaS(m, false, o.Scale, o.Seed)
			if err != nil {
				return err
			}
			// Warm the group: run one container of each function to
			// completion so the shared tables/page cache are populated.
			for i, name := range fg.FunctionNames() {
				if _, _, err := fg.Spawn(name, 0, o.Seed+uint64(i)); err != nil {
					return err
				}
			}
			if err := m.RunToCompletion(); err != nil {
				return err
			}
			// Now `docker start` a new parse container and time it.
			engine := kernelEngineCosts()
			task, forkCycles, err := fg.SpawnBringUp("parse", 0, o.Seed+99)
			if err != nil {
				return err
			}
			if err := m.RunTaskOnly(task); err != nil {
				return err
			}
			var touch memdefs.Cycles
			if task.Lat.Count() > 0 {
				touch = memdefs.Cycles(task.Lat.Percentile(100))
			}
			slot.Engine = engine
			slot.Fork = forkCycles
			slot.Touch = touch
			slot.Total = engine + forkCycles + touch
			return nil
		})
	}
	if err := pl.execute(o.Jobs); err != nil {
		return nil, err
	}
	res.ReductionPct = metrics.ReductionPct(float64(res.BaseCycles.Total), float64(res.BFCycles.Total))
	return res, nil
}

func kernelEngineCosts() memdefs.Cycles {
	// Mirrors container.DefaultEngineCosts().Total(); kept here to avoid
	// an import cycle would-be (container imports workloads).
	return 28_000_000 + 3_000_000 + 2_000_000 + 7_000_000
}

// String renders the bring-up decomposition.
func (r *BringupResult) String() string {
	t := metrics.NewTable("Container bring-up: docker start of a function container (paper: -8%)",
		"configuration", "engine", "fork", "page-touch", "total")
	t.Row("Baseline", uint64(r.BaseCycles.Engine), uint64(r.BaseCycles.Fork), uint64(r.BaseCycles.Touch), uint64(r.BaseCycles.Total))
	t.Row("BabelFish", uint64(r.BFCycles.Engine), uint64(r.BFCycles.Fork), uint64(r.BFCycles.Touch), uint64(r.BFCycles.Total))
	return t.String() + fmt.Sprintf("bring-up reduction: %.1f%%\n", r.ReductionPct)
}

// ResourcesResult is the Section VII-D hardware/software resource
// analysis.
type ResourcesResult struct {
	AreaPct       float64 // paper: 0.4%
	AreaNoMaskPct float64 // paper: 0.07%
	MaskPct       float64 // paper: 0.19%
	CounterPct    float64 // paper: 0.048%
	TotalPct      float64 // paper: 0.238%

	// Measured from a live BabelFish run:
	MeasuredMaskPages int
	MeasuredPTETables int
	MeasuredMaskPct   float64

	// Page-table memory of the same deployment under both architectures
	// (deduplicated frames): BabelFish's shared tables shrink it.
	BaselineTableFrames  int
	BabelFishTableFrames int
	TableFramesRedPct    float64
}

// Resources computes the analytic overheads and measures the software
// structures on a live run.
func Resources(o Options) (*ResourcesResult, error) { return new(Suite).Resources(o) }

// Resources is the package-level Resources with its two MongoDB runs
// shared through s.
func (s *Suite) Resources(o Options) (*ResourcesResult, error) {
	res := &ResourcesResult{
		AreaPct:       cacti.CoreAreaOverheadPct(cacti.BabelFishEntryBits()),
		AreaNoMaskPct: cacti.CoreAreaOverheadPct(cacti.BabelFishNoMaskEntryBits()),
	}
	res.MaskPct, res.CounterPct, res.TotalPct = cacti.MemorySpaceOverheadPct(true)

	oo := o
	oo.Cores = 2
	var pl plan
	pl.add("resources/babelfish", s.cell(oo, BabelFish, workloads.MongoDB(), func(c servingCell) {
		res.MeasuredPTETables = c.census[memdefs.LvlPTE]
		res.MeasuredMaskPages = c.maskPages
		if res.MeasuredPTETables > 0 {
			res.MeasuredMaskPct = 100 * float64(res.MeasuredMaskPages*memdefs.PageSize) /
				float64(res.MeasuredPTETables*memdefs.PageSize*512)
		}
		for _, n := range c.census {
			res.BabelFishTableFrames += n
		}
	}))
	pl.add("resources/baseline", s.cell(oo, Baseline, workloads.MongoDB(), func(c servingCell) {
		for _, n := range c.census {
			res.BaselineTableFrames += n
		}
	}))
	if err := pl.execute(o.Jobs); err != nil {
		return nil, err
	}
	res.TableFramesRedPct = metrics.ReductionPct(
		float64(res.BaselineTableFrames), float64(res.BabelFishTableFrames))
	return res, nil
}

// String renders the resource analysis.
func (r *ResourcesResult) String() string {
	var b strings.Builder
	t := metrics.NewTable("§VII-D: BabelFish resource analysis",
		"resource", "value", "paper")
	t.Row("core area overhead", fmt.Sprintf("%.2f%%", r.AreaPct), "0.4%")
	t.Row("core area overhead (no PC bitmask)", fmt.Sprintf("%.2f%%", r.AreaNoMaskPct), "0.07%")
	t.Row("MaskPage space overhead", fmt.Sprintf("%.3f%%", r.MaskPct), "0.19%")
	t.Row("counter space overhead", fmt.Sprintf("%.3f%%", r.CounterPct), "0.048%")
	t.Row("total space overhead", fmt.Sprintf("%.3f%%", r.TotalPct), "0.238%")
	t.Row("measured MaskPages (mongodb run)", r.MeasuredMaskPages, "-")
	t.Row("measured PTE tables (deduped)", r.MeasuredPTETables, "-")
	t.Row("measured MaskPage overhead", fmt.Sprintf("%.3f%%", r.MeasuredMaskPct), "≤0.19%")
	t.Row("page-table frames (baseline)", r.BaselineTableFrames, "-")
	t.Row("page-table frames (babelfish)", r.BabelFishTableFrames, "-")
	t.Row("page-table memory reduction", fmt.Sprintf("%.1f%%", r.TableFramesRedPct), "(implied by sharing)")
	b.WriteString(t.String())
	return b.String()
}
