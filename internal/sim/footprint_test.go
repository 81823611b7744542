//go:build !race

package sim

import (
	"runtime"
	"testing"
	"unsafe"

	"babelfish/internal/physmem"
	"babelfish/internal/tlb"
)

// TestFootprint pins the host memory a simulated machine costs, so a new
// field or an eagerly allocated array fails here instead of showing up
// only in a benchmark's peak RSS. The heap bound is for one node of the
// 8-node fleet benchmark: BabelFish, 2 cores, 256MB, Table I's 8MB L3.
// Its 512KB of L3 tag words (4 bytes per line) are most of it; TLB
// structures allocate their arrays on their first fill, and frame
// metadata on first use. The race detector's instrumentation allocates,
// hence the build tag.
func TestFootprint(t *testing.T) {
	if got := unsafe.Sizeof(tlb.Entry{}); got > 48 {
		t.Errorf("tlb.Entry is %d bytes, want at most 48", got)
	}
	if got := unsafe.Sizeof(physmem.Frame{}); got != 16 {
		t.Errorf("physmem.Frame is %d bytes, want 16", got)
	}

	p, err := ParamsForArch("babelfish")
	if err != nil {
		t.Fatal(err)
	}
	p.Cores = 2
	p.MemBytes = 256 << 20
	// The least of three builds, in case a leftover goroutine allocates
	// during one.
	var least uint64
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m := New(p)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(m)
		if d := after.TotalAlloc - before.TotalAlloc; i == 0 || d < least {
			least = d
		}
	}
	// Measured at 634,008 bytes with go1.24 on linux/amd64; an eager L2
	// 2MB TLB structure would add about 172KB, 8-byte cache tags 550KB.
	const bound = 700_000
	if least > bound {
		t.Errorf("sim.New allocates %d heap bytes for a 2-core 256MB BabelFish node, want at most %d", least, bound)
	}
}

// TestCacheReachChecked: a cache level whose tag words cannot tell apart
// every line of the machine's memory is a configuration error.
func TestCacheReachChecked(t *testing.T) {
	p, err := ParamsForArch("baseline")
	if err != nil {
		t.Fatal(err)
	}
	p.Cores = 1
	// One set of 1-byte lines: the 30-bit tags cover 1GB.
	p.Hier.L1D.SizeBytes, p.Hier.L1D.Ways, p.Hier.L1D.LineSize = 8, 8, 1
	p.MemBytes = 1 << 30
	New(p) // exactly covered
	p.MemBytes = 2 << 30
	defer func() {
		if recover() == nil {
			t.Fatal("sim.New accepted an L1D that covers 1GB of a 2GB memory")
		}
	}()
	New(p)
}
