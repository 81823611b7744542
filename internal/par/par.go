// Package par is the bounded worker pool behind every parallel layer of
// the simulator: the experiment engine's figure/sweep cells (PR 3) and
// the fleet layer's per-epoch node stepping both execute through it.
//
// A Plan is an ordered list of independent units of work. Units must
// share no mutable state beyond structures that are deterministic
// functions of their inputs (the seed-keyed workload graph cache, the
// ycsb zeta memo keyed by (n, theta), the experiment engine's per-suite
// cell memo, the atomic bug counters), so they can execute in any order
// on any number of workers and still leave results that are
// byte-identical to a serial run: every unit writes only into slots it
// owns, and callers assemble output in declaration order, not
// completion order.
package par

import (
	"fmt"
	"runtime"
	"sync"
)

// unit is one independent piece of work in a Plan.
type unit struct {
	label string
	run   func() error
}

// Plan is an ordered list of independent work units plus the bounded
// executor. The zero value is ready to use.
type Plan struct {
	units []unit
}

// Add appends a unit. The closure must write its result only into slots
// it owns (typically one index of a slice sized up front).
func (p *Plan) Add(label string, run func() error) {
	p.units = append(p.units, unit{label: label, run: run})
}

// Len reports how many units the plan holds.
func (p *Plan) Len() int { return len(p.units) }

// Execute runs the units on a worker pool of the given width. jobs <= 0
// means GOMAXPROCS. The serial path (jobs == 1) aborts at the first
// failing unit; the parallel path runs every unit and then reports the
// failure of the lowest-indexed failing unit, so the returned error is
// deterministic regardless of scheduling.
func (p *Plan) Execute(jobs int) error {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs == 1 || len(p.units) <= 1 {
		for i := range p.units {
			if err := p.units[i].run(); err != nil {
				return fmt.Errorf("%s: %w", p.units[i].label, err)
			}
		}
		return nil
	}
	errs := make([]error, len(p.units))
	sem := make(chan struct{}, jobs)
	var wg sync.WaitGroup
	for i := range p.units {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = p.units[i].run()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("%s: %w", p.units[i].label, err)
		}
	}
	return nil
}
