package experiments

import (
	"fmt"
	"slices"

	"babelfish/internal/obs"
	"babelfish/internal/sim"
	"babelfish/internal/workloads"
)

// Suite is the one plan of a suite regeneration or a bfbench invocation.
//
// Figures 10 and 11, §VII-C, the resource analysis, the MongoDB sweeps
// and the architecture head-to-head all measure co-location runs, and a
// run is a pure function of its (options × machine parameters × app ×
// containers per core) key: a fresh machine, seeds taken from Options,
// and process-wide caches whose values are deterministic functions of
// their keys. Each figure method declares its cells on the Suite and
// returns a projection of the cell results; a serving run is declared
// once per key, however many figures read it. Run then executes every
// cell on one pool, and the projections are called after it returns.
//
// Run starts every serving run before any figure-only cell, whatever
// order the figures were declared in. Declared in figure order, Figure
// 9's single-core GraphChi census cell built the process-wide R-MAT
// graph while about 14 serving machines ran, and perfbench suite-quick's
// peak RSS rose from about 32 MB to 42–46 MB; with the serving runs
// first it stayed at about 32 MB.
//
// A declaration that fails (an unknown architecture name) declares no
// cell, and Run returns its error before any cell runs.
//
// One goroutine declares the cells and calls Run once. A Suite lives
// for one regeneration and nothing in it is process-wide, so a process
// that regenerates the suite repeatedly simulates each regeneration
// afresh. The zero value is ready to use.
type Suite struct {
	Recorder *obs.Recorder // if non-nil, gets one KCell span per cell Run executes

	cells   map[cellKey]*servingCell
	serving plan  // one cell per distinct serving run
	own     plan  // cells that only one figure reads
	err     error // the first failed declaration
}

// cellKey identifies one serving run: perCore containers of app on each
// core of the machine p, under o's scale, seed and phase lengths. Jobs
// is cleared: results are byte-identical at any pool width.
type cellKey struct {
	o       Options
	p       sim.Params
	app     string
	perCore int
}

// serve declares the serving run of spec with perCore containers on each
// core of the machine p unless it is declared already, and returns the
// slot Run fills with its summary. The first declaration names the run:
// serving/<app>/<name>/<cores>-core, with a /<n>-per-core suffix when
// perCore is not the paper's two.
func (s *Suite) serve(o Options, name string, p sim.Params, spec *workloads.AppSpec, perCore int) *servingCell {
	k := cellKey{o: o, p: p, app: spec.Name, perCore: perCore}
	k.o.Jobs = 0
	if c := s.cells[k]; c != nil {
		return c
	}
	if s.cells == nil {
		s.cells = make(map[cellKey]*servingCell)
	}
	c := new(servingCell)
	s.cells[k] = c
	label := fmt.Sprintf("serving/%s/%s/%d-core", spec.Name, name, o.Cores)
	if perCore != paperPerCore {
		label += fmt.Sprintf("/%d-per-core", perCore)
	}
	s.serving.add(label, func() (err error) {
		*c, err = servingRun(o, p, spec, perCore)
		return err
	})
	return c
}

// servePaper declares the run of spec on architecture a in the paper's
// co-location.
func (s *Suite) servePaper(o Options, a Arch, spec *workloads.AppSpec) *servingCell {
	return s.serve(o, a.String(), o.Params(a), spec, paperPerCore)
}

// Run executes the declared cells, serving runs first, on a worker pool
// of the given width. jobs <= 0 means GOMAXPROCS; a failure reports the
// lowest-indexed failing cell under its label.
func (s *Suite) Run(jobs int) error {
	if s.err != nil {
		return s.err
	}
	p := plan{slices.Concat(s.serving.labels, s.own.labels), slices.Concat(s.serving.runs, s.own.runs)}
	return p.execute(jobs, s.Recorder)
}

// alone runs one experiment as a plan of its own.
func alone[R any](o Options, declare func(*Suite, Options) func() R) (R, error) {
	var s Suite
	get := declare(&s, o)
	if err := s.Run(o.Jobs); err != nil {
		var zero R
		return zero, err
	}
	return get(), nil
}
