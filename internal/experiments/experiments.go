// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VII). Each runner builds the machines it needs,
// runs warm-up and measurement phases, and returns a result struct whose
// String method prints rows shaped like the paper's.
//
// Absolute numbers differ from the paper (the substrate is this
// repository's simulator, not Simics on the authors' testbed); the
// reproduction target is the shape: who wins, by roughly what factor,
// and where the crossovers fall. EXPERIMENTS.md records paper-vs-measured
// for every row.
package experiments

import (
	"fmt"

	"babelfish/internal/kernel"
	"babelfish/internal/memdefs"
	"babelfish/internal/sim"
	"babelfish/internal/workloads"
	"babelfish/internal/xlatpolicy"
)

// Options scales the experiments. Defaults reproduce the paper's setup
// at simulation-friendly sizes; tests use smaller values.
type Options struct {
	Cores        int
	Scale        float64 // dataset scale (1.0 ≈ 48MB datasets)
	WarmInstr    uint64  // warm-up instructions per core
	MeasureInstr uint64  // measured instructions per core
	Seed         uint64
	MemBytes     uint64
	Quantum      uint64
	// L3Bytes overrides the shared L3 size. The default scales Table I's
	// 8MB by the same ~1/10 factor as the datasets (500MB → 48MB), so
	// cache contention — which decides how often page walks reach DRAM —
	// keeps the paper's data:cache proportions.
	L3Bytes int
	// Jobs bounds the experiment engine's worker pool: each figure/sweep
	// runs its independent cells on up to Jobs workers (see plan.go).
	// 0 means GOMAXPROCS; 1 forces serial execution. Results are
	// byte-identical at any width, so Jobs is excluded from JSON reports.
	Jobs int `json:"-"`

	// CoreShards > 0 steps each machine's cores concurrently on up to
	// CoreShards goroutines with a deterministic quantum barrier.
	// Byte-identical at any width >= 1; excluded from reports.
	CoreShards int `json:"-"`
}

// Default returns the standard experiment options.
func Default() Options {
	return Options{
		Cores:        8,
		Scale:        1.0,
		WarmInstr:    600_000,
		MeasureInstr: 1_500_000,
		Seed:         2020,
		MemBytes:     4 << 30,
		Quantum:      400_000,
		L3Bytes:      2 << 20,
	}
}

// Quick returns reduced options for unit tests and smoke runs.
func Quick() Options {
	return Options{
		Cores:        2,
		Scale:        0.25,
		WarmInstr:    200_000,
		MeasureInstr: 400_000,
		Seed:         2020,
		MemBytes:     1 << 30,
		Quantum:      200_000,
		L3Bytes:      1 << 19,
	}
}

// Arch identifies a machine configuration under test.
type Arch int

const (
	// Baseline is the conventional server of Section VI.
	Baseline Arch = iota
	// BabelFish is the full proposal (TLB + page-table sharing, ASLR-HW).
	BabelFish
	// BabelFishPT shares page tables but keeps conventional per-process
	// TLBs — the ablation used to attribute Table II's gains.
	BabelFishPT
	// BaselineLargerTLB is the §VII-C comparison: the baseline with the
	// BabelFish bit budget spent on L2 TLB capacity instead.
	BaselineLargerTLB
)

func (a Arch) String() string {
	switch a {
	case Baseline:
		return "Baseline"
	case BabelFish:
		return "BabelFish"
	case BabelFishPT:
		return "BabelFish-PTonly"
	case BaselineLargerTLB:
		return "Baseline+LargerTLB"
	}
	return fmt.Sprintf("Arch(%d)", int(a))
}

// Params builds sim parameters for an architecture.
func (o Options) Params(a Arch) sim.Params {
	var p sim.Params
	switch a {
	case Baseline:
		p = sim.DefaultParams(kernel.ModeBaseline)
	case BaselineLargerTLB:
		p = sim.DefaultParams(kernel.ModeBaseline)
		p.MMU.LargerL2 = true
	case BabelFish:
		p = sim.DefaultParams(kernel.ModeBabelFish)
	case BabelFishPT:
		// Conventional TLBs over shared tables: the baseline translation
		// policy on a BabelFish kernel, the Table II attribution ablation.
		p = sim.DefaultParams(kernel.ModeBabelFish)
		p.MMU.Policy = xlatpolicy.MustGet("baseline").Policy
		p.MMU.BabelFish = false
		p.MMU.ASLRHW = false
		p.Kernel.ASLR = kernel.ASLRSW // one layout per group; no transform
	}
	return o.apply(p)
}

// ParamsForArch builds sim parameters for a named registered architecture
// (the xlatpolicy registry set), applying the options' machine scaling.
func (o Options) ParamsForArch(name string) (sim.Params, error) {
	p, err := sim.ParamsForArch(name)
	if err != nil {
		return sim.Params{}, err
	}
	return o.apply(p), nil
}

// apply overlays the options' machine scaling onto base params.
func (o Options) apply(p sim.Params) sim.Params {
	p.Cores = o.Cores
	p.MemBytes = o.MemBytes
	if o.Quantum > 0 {
		p.Quantum = memdefs.Cycles(o.Quantum)
	}
	if o.L3Bytes > 0 {
		p.L3.SizeBytes = o.L3Bytes
	}
	p.CoreShards = o.CoreShards
	return p
}

// ServingApps returns the data-serving specs in paper order.
func ServingApps() []*workloads.AppSpec {
	return []*workloads.AppSpec{workloads.MongoDB(), workloads.ArangoDB(), workloads.HTTPd()}
}

// ComputeApps returns the compute specs in paper order.
func ComputeApps() []*workloads.AppSpec {
	return []*workloads.AppSpec{workloads.GraphChi(), workloads.FIO()}
}

// servingCell is what the figures read from one serving run: the
// measured-phase aggregate, the request-latency and execution-time means,
// and the page-table census. It is all a run leaves behind; the machine
// itself is dropped when servingRun returns.
type servingCell struct {
	agg       sim.AggStats
	meanLat   float64
	p95Lat    float64
	execOwn   float64
	census    [memdefs.NumLevels]int
	maskPages int
}

// servingRun builds a machine for one app with two containers per core
// (the paper's conservative co-location), runs warm-up + measurement and
// summarises the result.
func servingRun(o Options, p sim.Params, spec *workloads.AppSpec) (servingCell, error) {
	m := sim.New(p)
	d, err := workloads.Deploy(m, spec, o.Scale, o.Seed)
	if err != nil {
		return servingCell{}, err
	}
	for core := 0; core < o.Cores; core++ {
		for j := 0; j < 2; j++ {
			if _, _, err := d.Spawn(core, o.Seed+uint64(core*977+j*131)); err != nil {
				return servingCell{}, err
			}
		}
	}
	// Long-running services measure in steady state: page tables fully
	// populated (the paper warms for minutes before measuring).
	if err := d.PrefaultAll(); err != nil {
		return servingCell{}, err
	}
	if err := m.Run(o.WarmInstr); err != nil {
		return servingCell{}, err
	}
	m.ResetStats()
	if err := m.Run(o.MeasureInstr); err != nil {
		return servingCell{}, err
	}
	return servingCell{
		agg:       m.Aggregate(),
		meanLat:   d.MeanLatency(),
		p95Lat:    d.TailLatency(95),
		execOwn:   d.MeanExecOwn(),
		census:    m.Kernel.TableCensus(),
		maskPages: m.Kernel.MaskPageCount(),
	}, nil
}
