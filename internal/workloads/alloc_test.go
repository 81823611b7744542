//go:build !race

package workloads

import (
	"testing"

	"babelfish/internal/sim"
)

// TestNextBatchZeroAlloc holds every application's request generator to
// zero heap allocations per NextBatch once its step queue has grown to
// steady size. A lookup helper that returns a fresh slice per request is
// enough to break this; the test is what notices.
//
// The race detector's instrumentation allocates, hence the build tag.
func TestNextBatchZeroAlloc(t *testing.T) {
	for _, mk := range []func() *AppSpec{MongoDB, ArangoDB, HTTPd, GraphChi, FIO} {
		spec := mk()
		t.Run(spec.Name, func(t *testing.T) {
			_, d := deployOne(t, spec, 11)
			g, ok := spec.NewGen(d, d.Containers[0], 0, 3).(sim.BatchGenerator)
			if !ok {
				t.Fatalf("%s generator does not implement sim.BatchGenerator", spec.Name)
			}
			buf := make([]sim.Step, 256)
			for i := 0; i < 2000; i++ { // warm-up: queues reach their largest request
				g.NextBatch(buf)
			}
			steps := 0
			allocs := testing.AllocsPerRun(200, func() { steps += g.NextBatch(buf) })
			if steps == 0 {
				t.Fatal("generator produced no steps")
			}
			if allocs != 0 {
				t.Errorf("%.2f allocs per NextBatch of %d steps, want 0", allocs, len(buf))
			}
		})
	}
}
