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
	BaseForkCyc memdefs.Cycles
	BFForkCyc   memdefs.Cycles
}

// Churn runs `waves` waves of one container per function on one core.
func Churn(o Options, waves int) (*ChurnResult, error) {
	return alone(o, func(s *Suite, o Options) func() *ChurnResult { return s.Churn(o, waves) })
}

// Churn declares the comparison's cells on s, one per architecture.
func (s *Suite) Churn(o Options, waves int) func() *ChurnResult {
	if waves <= 0 {
		waves = 4
	}
	res := &ChurnResult{Waves: waves, PerWave: 3}
	s.own.add("churn/Baseline", func() (err error) {
		res.BaseCycles, res.BaseFaults, res.BasePeakMem, res.BaseForkCyc, err = faasWaves(o, Baseline, waves, res.PerWave)
		return err
	})
	s.own.add("churn/BabelFish", func() (err error) {
		res.BFCycles, res.BFFaults, res.BFPeakMem, res.BFForkCyc, err = faasWaves(o, BabelFish, waves, res.PerWave)
		return err
	})
	return func() *ChurnResult {
		res.RedPct = metrics.ReductionPct(res.BaseCycles, res.BFCycles)
		return res
	}
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

// faasWaves is the single-core serverless runner behind Churn and the
// group-size sweep: waves waves of n function containers (the group's
// functions taken in turn) sharing one sparse runtime, each wave spawned,
// run to completion and exited. It returns the summed own-cycles, the
// page faults, the peak allocated frames and the fork cycles.
func faasWaves(o Options, a Arch, waves, n int) (cycles float64, faults uint64, peak int, forkCyc memdefs.Cycles, err error) {
	oo := o
	oo.Cores = 1
	m := sim.New(oo.Params(a))
	fg, err := workloads.DeployFaaS(m, true, o.Scale, o.Seed)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	names := fg.FunctionNames()
	for w := 0; w < waves; w++ {
		start := len(fg.Tasks)
		for j := 0; j < n; j++ {
			_, fc, err := fg.Spawn(names[j%len(names)], 0, o.Seed+uint64(w*31+j))
			if err != nil {
				return 0, 0, 0, 0, err
			}
			forkCyc += fc
		}
		if err := m.RunToCompletion(); err != nil {
			return 0, 0, 0, 0, err
		}
		for _, task := range fg.Tasks[start:] {
			if mean, ok := task.MeanOwn(); ok {
				cycles += mean
			}
			task.Proc.Exit() // the container exits after its run
		}
	}
	return cycles, m.Aggregate().Faults, m.Mem.PeakAllocated(), forkCyc, nil
}
