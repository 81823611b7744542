package workloads

import (
	"sync"
	"testing"

	"babelfish/internal/graph"
)

// TestGraphMemoBuildsOnceUnderConcurrency starts the first callers of one
// key together: they must share one build and one *CSR.
func TestGraphMemoBuildsOnceUnderConcurrency(t *testing.T) {
	var m graphMemo
	const callers = 8
	got := make([]*graph.CSR, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = m.get(12, graphEdgeFactor, 0x9E37+1)
		}()
	}
	close(start)
	wg.Wait()
	if b := m.builds.Load(); b != 1 {
		t.Fatalf("%d builds for one key, want 1", b)
	}
	for i, g := range got {
		if g == nil || g != got[0] {
			t.Fatalf("caller %d got graph %p, caller 0 got %p", i, g, got[0])
		}
	}
	if other := m.get(12, graphEdgeFactor, 0x9E37*2+1); other == got[0] || m.builds.Load() != 2 {
		t.Fatalf("a second key shared the first graph or did not build (builds %d)", m.builds.Load())
	}
}
