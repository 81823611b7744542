//go:build !race

package workloads

import (
	"math"
	"testing"

	"babelfish/internal/kernel"
	"babelfish/internal/sim"
)

// TestNextBatchZeroAlloc holds every generator the scheduler drains to
// zero heap allocations per NextBatch once its carry has reached the
// size of the largest request that overflows a buffer. A lookup helper
// that returns a fresh slice per request is enough to break this; the
// test is what notices. The function and bring-up streams are finite,
// so they are drained through a small buffer that they outlast.
//
// The race detector's instrumentation allocates, hence the build tag.
func TestNextBatchZeroAlloc(t *testing.T) {
	type allocCase struct {
		name      string
		mk        func(t *testing.T) sim.Generator
		buf, warm int
	}
	app := func(mk func() *AppSpec) func(t *testing.T) sim.Generator {
		return func(t *testing.T) sim.Generator {
			spec := mk()
			_, d := deployOne(t, spec, 11)
			return spec.NewGen(d, d.Containers[0], 0, 3)
		}
	}
	faas := func(bringUpOnly bool) func(t *testing.T) sim.Generator {
		return func(t *testing.T) sim.Generator {
			p := sim.DefaultParams(kernel.ModeBaseline)
			p.Cores = 1
			p.MemBytes = 512 << 20
			fg, err := DeployFaaS(sim.New(p), false, 0.2, 3)
			if err != nil {
				t.Fatal(err)
			}
			if bringUpOnly {
				task, _, err := fg.Spawn("hash", 0, 1)
				if err != nil {
					t.Fatal(err)
				}
				env, err := fg.Env("hash", task.Proc)
				if err != nil {
					t.Fatal(err)
				}
				return NewBringUp(env, 1)
			}
			task, _, err := fg.Spawn("marshal", 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			return task.Gen.(*Chain).Gens[1] // the function after its bring-up
		}
	}
	var cases []allocCase
	for _, mk := range []func() *AppSpec{MongoDB, ArangoDB, HTTPd, GraphChi, FIO} {
		cases = append(cases, allocCase{mk().Name, app(mk), 256, 2000})
	}
	cases = append(cases,
		allocCase{"func", faas(false), 16, 50},
		allocCase{"bringup", faas(true), 7, 20},
		allocCase{"gated-mongodb", func(t *testing.T) sim.Generator {
			g := NewRequestGate(app(MongoDB)(t))
			g.SetTarget(math.MaxUint64)
			return g
		}, 256, 2000},
	)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g, ok := c.mk(t).(sim.BatchGenerator)
			if !ok {
				t.Fatalf("%s generator does not implement sim.BatchGenerator", c.name)
			}
			buf := make([]sim.Step, c.buf)
			for i := 0; i < c.warm; i++ { // the carry reaches its largest request
				g.NextBatch(buf)
			}
			steps := 0
			allocs := testing.AllocsPerRun(200, func() { steps += g.NextBatch(buf) })
			if steps < 201 { // AllocsPerRun calls once more than asked
				t.Fatalf("generator produced %d steps in 201 calls; its stream ended", steps)
			}
			if allocs != 0 {
				t.Errorf("%.2f allocs per NextBatch of %d steps, want 0", allocs, len(buf))
			}
		})
	}
}
