package experiments

import (
	"babelfish/internal/obs"
	"babelfish/internal/par"
)

// The parallel experiment engine.
//
// Every figure/sweep decomposes into a plan of independent cells. A cell
// is one (architecture × app × config) measurement: it builds its own
// sim.Machine — with its own physmem, kernel, cores and deployment — runs
// deploy → warm → measure, and stores its row into a result slot that
// only it writes. Because cells share no mutable state (the only
// process-wide structures they touch are the seed-keyed workload graph
// memo, which builds each graph once and whose values are deterministic
// functions of their key, the ycsb zeta memo keyed by (n, theta), whose values are the same
// float sums a fresh computation gives, and the atomic kernel/physmem
// bug counters), they can execute in any order on any number of workers
// and still produce results that are byte-identical to a serial run: all
// randomness is seeded per cell from Options.Seed, and the plan
// assembles results in declaration order, not completion order.
//
// Every experiment declares its cells on a Suite (suite.go), which
// holds one plan per regeneration or bfbench invocation: each distinct
// (options, architecture, app) serving run is declared once, however
// many figures read it, and Suite.Run executes every serving run before
// any figure-only cell. That order keeps the quick suite's peak RSS at
// about 32 MB; in figure order, Figure 9's GraphChi census built the
// process-wide R-MAT graph while serving machines ran, and peak RSS rose
// to 42–46 MB. The sweeps, ArchCompare and LoadRamp declare figure-only
// cells on the same Suite.
//
// The bounded executor itself lives in internal/par (the fleet layer
// steps its nodes on the same pool).

// plan is an ordered list of labelled cells.
type plan struct {
	labels []string
	runs   []func() error
}

// add appends a cell. The closure must write its result only into slots
// it owns (typically one index of a slice sized up front).
func (p *plan) add(label string, run func() error) {
	p.labels = append(p.labels, label)
	p.runs = append(p.runs, run)
}

// execute runs the cells on a worker pool of the given width. jobs <= 0
// means GOMAXPROCS; errors resolve to the lowest-indexed failing cell.
// A non-nil rec receives one KCell span per cell, recorded after the
// plan drains, in declaration order on a plan-count timeline, so the
// trace is byte-identical at any worker-pool width.
func (p *plan) execute(jobs int, rec *obs.Recorder) error {
	var pp par.Plan
	for i, run := range p.runs {
		pp.Add(p.labels[i], run)
	}
	err := pp.Execute(jobs)
	if rec != nil {
		for _, label := range p.labels {
			rec.Record(obs.Span{
				Kind: obs.KCell, Name: label, Node: -1, Core: -1, Task: -1, PID: -1,
				Start: uint64(rec.Total()), Dur: 1,
			})
		}
	}
	return err
}
