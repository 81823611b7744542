package experiments

import (
	"babelfish/internal/memdefs"
	"babelfish/internal/metrics"
	"babelfish/internal/sim"
	"babelfish/internal/workloads"
)

// ChurnResult measures serverless container churn: waves of function
// containers spawn, run to completion and exit. This is the paradigm
// the paper's introduction motivates ("containers enable the serverless
// paradigm, which leads to the creation of short-lived processes"), and
// it stresses exactly what BabelFish shares: each wave re-creates page
// tables and re-faults pages in the baseline, while BabelFish's group
// tables persist across waves as long as the group lives.
type ChurnResult struct {
	Waves       int
	PerWave     int
	BaseCycles  float64 // total own-cycles across all function runs
	BFCycles    float64
	RedPct      float64
	BaseFaults  uint64
	BFFaults    uint64
	BasePeakMem int // peak allocated frames
	BFPeakMem   int
	BaseTables  int // page-table frames at the end of the run (deduped)
	BFTables    int
	TableRedPct float64
	BaseForkCyc memdefs.Cycles
	BFForkCyc   memdefs.Cycles
}

// Churn runs `waves` waves of one container per function on one core.
func Churn(o Options, waves int) (*ChurnResult, error) {
	if waves <= 0 {
		waves = 4
	}
	res := &ChurnResult{Waves: waves, PerWave: 3}

	run := func(a Arch) (cycles float64, faults uint64, peak, tables int, forkCyc memdefs.Cycles, err error) {
		oo := o
		oo.Cores = 1
		m := sim.New(oo.Params(a))
		fg, err := workloads.DeployFaaS(m, true, o.Scale, o.Seed)
		if err != nil {
			return 0, 0, 0, 0, 0, err
		}
		for w := 0; w < waves; w++ {
			start := len(fg.Tasks)
			for j, name := range fg.FunctionNames() {
				_, fc, err := fg.Spawn(name, 0, o.Seed+uint64(w*31+j))
				if err != nil {
					return 0, 0, 0, 0, 0, err
				}
				forkCyc += fc
			}
			if err := m.RunToCompletion(); err != nil {
				return 0, 0, 0, 0, 0, err
			}
			for _, task := range fg.Tasks[start:] {
				if task.LatOwn.Count() > 0 {
					cycles += task.LatOwn.Mean()
				}
				task.Proc.Exit() // the container exits after its run
			}
		}
		census := m.Kernel.TableCensus()
		for _, n := range census {
			tables += n
		}
		ag := m.Aggregate()
		return cycles, ag.Faults, m.Mem.PeakAllocated(), tables, forkCyc, nil
	}

	var pl plan
	pl.add("churn/Baseline", func() error {
		var err error
		res.BaseCycles, res.BaseFaults, res.BasePeakMem, res.BaseTables, res.BaseForkCyc, err = run(Baseline)
		return err
	})
	pl.add("churn/BabelFish", func() error {
		var err error
		res.BFCycles, res.BFFaults, res.BFPeakMem, res.BFTables, res.BFForkCyc, err = run(BabelFish)
		return err
	})
	if err := pl.execute(o.Jobs); err != nil {
		return nil, err
	}
	res.RedPct = metrics.ReductionPct(res.BaseCycles, res.BFCycles)
	res.TableRedPct = metrics.ReductionPct(float64(res.BaseTables), float64(res.BFTables))
	return res, nil
}

// String renders the churn comparison.
func (r *ChurnResult) String() string {
	t := metrics.NewTable("Serverless churn: waves of short-lived function containers (1 core)",
		"metric", "baseline", "babelfish", "reduction%")
	t.Row("total exec cycles", r.BaseCycles, r.BFCycles, r.RedPct)
	t.Row("page faults", r.BaseFaults, r.BFFaults,
		metrics.ReductionPct(float64(r.BaseFaults), float64(r.BFFaults)))
	t.Row("fork cycles", uint64(r.BaseForkCyc), uint64(r.BFForkCyc),
		metrics.ReductionPct(float64(r.BaseForkCyc), float64(r.BFForkCyc)))
	t.Row("peak frames", r.BasePeakMem, r.BFPeakMem,
		metrics.ReductionPct(float64(r.BasePeakMem), float64(r.BFPeakMem)))
	return t.String()
}
