//go:build !race

package cache

import (
	"testing"

	"babelfish/internal/dram"
	"babelfish/internal/memdefs"
	"babelfish/internal/memsys"
)

// TestAccessZeroAlloc holds Cache.Access to zero heap allocations on a
// hit and on a miss that goes through every level to DRAM. The race
// detector's instrumentation allocates, hence the build tag.
func TestAccessZeroAlloc(t *testing.T) {
	l3 := New(DefaultL3Config(), dram.New(dram.DefaultConfig()))
	h := NewHierarchy(DefaultHierarchyConfig(), l3)
	served := true
	access := func(pa memdefs.PAddr, want memsys.Where) {
		if _, where := h.Data(pa, false); where != want {
			served = false
		}
	}

	access(0x1000, memsys.WhereMem)
	if allocs := testing.AllocsPerRun(100, func() { access(0x1000, memsys.WhereL1) }); allocs != 0 {
		t.Errorf("hit: %.1f allocs per access, want 0", allocs)
	}
	if !served {
		t.Fatal("hit served below the L1")
	}

	// A fresh line every call: cold in every level, so it reaches DRAM.
	pa := memdefs.PAddr(1 << 20)
	if allocs := testing.AllocsPerRun(100, func() {
		pa += 64
		access(pa, memsys.WhereMem)
	}); allocs != 0 {
		t.Errorf("miss: %.1f allocs per access, want 0", allocs)
	}
	if !served {
		t.Fatal("miss served above DRAM")
	}
}
