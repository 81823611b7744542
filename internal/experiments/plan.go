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
// cache, a sync.Map whose values are deterministic functions of their
// key, the ycsb zeta memo keyed by (n, theta), whose values are the same
// float sums a fresh computation gives, and the atomic kernel/physmem
// bug counters), they can execute in any order on any number of workers
// and still produce results that are byte-identical to a serial run: all
// randomness is seeded per cell from Options.Seed, and the plan
// assembles results in declaration order, not completion order.
//
// Serving cells additionally go through a Suite (suite.go), which runs
// each distinct (options, architecture, app) measurement once and hands
// its summary to every figure of one regeneration that asks for it. The
// memo is scoped to the Suite, not the process, so repeated
// regenerations in one process each simulate their cells afresh.
//
// The bounded executor itself lives in internal/par (the fleet layer
// steps its nodes on the same pool); plan keeps the engine's historical
// lowercase spelling.

// plan is an ordered list of cells plus the bounded executor.
type plan struct {
	par.Plan
	labels []string
}

// cellRecorder, when non-nil, receives one KCell span per executed plan
// cell (set once by the CLI before any experiment runs; never mutated
// concurrently with execute). Spans are recorded after the plan drains,
// in declaration order on a plan-count timeline, so the trace is
// byte-identical at any worker-pool width.
var cellRecorder *obs.Recorder

// SetObsRecorder installs (or, with nil, removes) the span recorder the
// experiment engine logs its plan cells to.
func SetObsRecorder(r *obs.Recorder) { cellRecorder = r }

// add appends a cell. The closure must write its result only into slots
// it owns (typically one index of a slice sized up front).
func (p *plan) add(label string, run func() error) {
	p.labels = append(p.labels, label)
	p.Add(label, run)
}

// execute runs the cells on a worker pool of the given width. jobs <= 0
// means GOMAXPROCS; errors resolve to the lowest-indexed failing cell.
func (p *plan) execute(jobs int) error {
	err := p.Execute(jobs)
	if r := cellRecorder; r != nil {
		for _, label := range p.labels {
			r.Record(obs.Span{
				Kind: obs.KCell, Name: label, Node: -1, Core: -1, Task: -1, PID: -1,
				Start: uint64(r.Total()), Dur: 1,
			})
		}
	}
	return err
}
