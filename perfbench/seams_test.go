package main

import (
	"testing"
	"time"

	"babelfish/internal/sim"
	"babelfish/internal/workloads"
)

// fakeGen is a generator with a chosen set of optional interfaces.
type fakeGen struct{ n int }

func (g *fakeGen) Next(s *sim.Step) bool {
	if g.n == 0 {
		return false
	}
	g.n--
	s.Think = 3
	return true
}

type batchGen struct{ fakeGen }

func (g *batchGen) NextBatch(buf []sim.Step) int {
	i := 0
	for i < len(buf) && g.Next(&buf[i]) {
		i++
	}
	return i
}

type mutator struct{ fakeGen }

func (*mutator) MutatesKernel() bool { return true }

type starver struct{ fakeGen }

func (*starver) Starved() bool { return true }

type batchMutatorStarver struct{ batchGen }

func (*batchMutatorStarver) MutatesKernel() bool { return true }
func (*batchMutatorStarver) Starved() bool       { return true }

type quietMutator struct{ batchGen }

func (*quietMutator) MutatesKernel() bool { return false }

// view is how the scheduler and the request gates see a generator.
type view struct {
	batch, mutates, starved bool
}

func viewOf(g sim.Generator) view {
	var v view
	_, v.batch = g.(sim.BatchGenerator)
	if m, ok := g.(sim.KernelMutator); ok {
		v.mutates = m.MutatesKernel()
	}
	if s, ok := g.(sim.Starver); ok {
		v.starved = s.Starved()
	}
	return v
}

func TestWrapGenKeepsOptionalInterfaces(t *testing.T) {
	for _, c := range []struct {
		name string
		gen  sim.Generator
	}{
		{"plain", &fakeGen{n: 5}},
		{"batch", &batchGen{fakeGen{n: 5}}},
		{"mutator", &mutator{fakeGen{n: 5}}},
		{"starver", &starver{fakeGen{n: 5}}},
		{"batch+mutator+starver", &batchMutatorStarver{batchGen{fakeGen{n: 5}}}},
		{"batch, declares no mutation", &quietMutator{batchGen{fakeGen{n: 5}}}},
	} {
		want := viewOf(c.gen)
		var st seamStat
		w := wrapGen(c.gen, &st)
		if got := viewOf(w); got != want {
			t.Errorf("%s: wrapped view %+v, want %+v", c.name, got, want)
		}
		// The wrapper forwards the stream unchanged and counts its steps.
		steps := 0
		if bg, ok := w.(sim.BatchGenerator); ok {
			buf := make([]sim.Step, 2)
			for n := bg.NextBatch(buf); n > 0; n = bg.NextBatch(buf) {
				steps += n
			}
		} else {
			var s sim.Step
			for w.Next(&s) {
				steps++
			}
		}
		if steps != 5 || st.units.Load() != 5 {
			t.Errorf("%s: %d steps through the wrapper, %d counted, want 5", c.name, steps, st.units.Load())
		}
	}
}

func TestNilTracerInterposesNothing(t *testing.T) {
	var tr *tracer
	spec := workloads.MongoDB()
	if tr.wrapSpec(spec) != spec {
		t.Error("untraced run wrapped the app spec")
	}
	tr.span("x", time.Now(), time.Millisecond) // no-op, must not panic
	tr.instrumentMachine(nil)
}
