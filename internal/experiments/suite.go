package experiments

import (
	"sync"
	"sync/atomic"

	"babelfish/internal/workloads"
)

// Suite shares serving runs between the figures of one regeneration.
//
// Figures 10 and 11, §VII-C and the resource analysis all measure the
// same (options × architecture × app) co-location runs, and a run is a
// pure function of that key: a fresh machine, seeds taken from Options,
// and process-wide caches whose values are deterministic functions of
// their keys. A Suite therefore simulates each distinct cell once and
// hands its summary to every figure that asks; cells found in the memo
// still appear in their figure's plan (and trace), they just return at
// once.
//
// The memo lives only as long as the Suite. It is deliberately not
// process-wide: a long-lived process that regenerates the suite
// repeatedly would otherwise turn every later regeneration into map
// lookups and keep every summary alive. The zero value is ready to use;
// a Suite is safe for concurrent use.
type Suite struct {
	mu    sync.Mutex
	cells map[cellKey]*cellEntry
	// For tests: serving runs asked for, and actually simulated.
	asked, simulated atomic.Int64
}

// cellKey identifies one serving run. Jobs is cleared: results are
// byte-identical at any pool width.
type cellKey struct {
	o   Options
	a   Arch
	app string
}

// cellEntry computes its cell once; concurrent askers wait on once.
type cellEntry struct {
	once sync.Once
	cell servingCell
	err  error
}

// serving returns the summary of one serving run, simulating it on the
// first request only. A failed run returns the same error to every asker.
func (s *Suite) serving(o Options, a Arch, spec *workloads.AppSpec) (servingCell, error) {
	s.asked.Add(1)
	k := cellKey{o: o, a: a, app: spec.Name}
	k.o.Jobs = 0
	s.mu.Lock()
	if s.cells == nil {
		s.cells = make(map[cellKey]*cellEntry)
	}
	e := s.cells[k]
	if e == nil {
		e = &cellEntry{}
		s.cells[k] = e
	}
	s.mu.Unlock()
	e.once.Do(func() {
		s.simulated.Add(1)
		e.cell, e.err = servingRun(o, o.Params(a), spec)
	})
	return e.cell, e.err
}

// cell returns a plan cell body that fetches one serving run and passes
// its summary to use, which must write only into slots the cell owns.
func (s *Suite) cell(o Options, a Arch, spec *workloads.AppSpec, use func(servingCell)) func() error {
	return func() error {
		c, err := s.serving(o, a, spec)
		if err != nil {
			return err
		}
		use(c)
		return nil
	}
}
