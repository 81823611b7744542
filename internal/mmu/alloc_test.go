//go:build !race

package mmu

import (
	"testing"

	"babelfish/internal/memdefs"
	"babelfish/internal/pgtable"
	"babelfish/internal/physmem"
	"babelfish/internal/xlatpolicy"
)

// TestTranslateZeroAlloc holds the translation path to zero heap
// allocations per call under every registered architecture, on each way
// a translation can resolve: L1 hit, L2 hit, policy-structure hit (where
// the policy has one) and page walk. A pointer handed through the
// xlatpolicy.Core interface is enough to move the lookup tags to the heap
// on every call, L1 hits included; this test is what notices.
//
// The race detector's instrumentation allocates, hence the build tag.
func TestTranslateZeroAlloc(t *testing.T) {
	for _, name := range xlatpolicy.Names() {
		t.Run(name, func(t *testing.T) {
			r := newRig(t, Config{Policy: xlatpolicy.MustGet(name).Policy, ASLRHW: true})
			r.ctx.SharedVA = func(va memdefs.VAddr) memdefs.VAddr { return va }
			// Eight contiguous frames behind one aligned 8-PTE window, so
			// the coalescing policies build a run on the first walk.
			frames, err := r.mem.AllocBlock(physmem.FrameData)
			if err != nil {
				t.Fatal(err)
			}
			const va0 = memdefs.VAddr(0x40000000)
			for i := 0; i < 8; i++ {
				va := va0 + memdefs.VAddr(i)*memdefs.PageSize
				if err := r.tbl.Map4K(va, frames+memdefs.PPN(i), pgtable.FlagWrite|pgtable.FlagUser); err != nil {
					t.Fatal(err)
				}
			}
			va := va0 + 3*memdefs.PageSize
			failed := false
			translate := func() {
				if _, _, err := r.mmu.TranslateInto(&r.ctx, va, false, memdefs.AccessData, nil); err != nil {
					failed = true
				}
			}
			translate() // the first walk fills the TLBs and the policy core

			paths := []struct {
				name  string
				prep  func()
				count func(Stats) uint64
			}{
				{"L1-hit", func() {}, func(s Stats) uint64 { return s.L1Hits }},
				{"L2-hit", func() { r.mmu.L1D.InvalidateVA(va) }, func(s Stats) uint64 { return s.L2Hits }},
				{"policy-hit", func() {
					// Drop the TLB entries but not the policy core's copy.
					r.mmu.L1D.InvalidateVA(va)
					r.mmu.L2.InvalidateVA(va)
				}, func(s Stats) uint64 { return s.L2Misses - s.Walks }},
				{"walk", func() { r.mmu.InvalidateVA(va) }, func(s Stats) uint64 { return s.Walks }},
			}
			for _, p := range paths {
				if p.name == "policy-hit" && r.mmu.PolicyCore() == nil {
					continue
				}
				const runs = 100
				before := p.count(r.mmu.Stats())
				allocs := testing.AllocsPerRun(runs, func() {
					p.prep()
					translate()
				})
				if failed {
					t.Fatalf("%s: translation failed", p.name)
				}
				// AllocsPerRun makes one warm-up call before the runs.
				if got := p.count(r.mmu.Stats()) - before; got != runs+1 {
					t.Fatalf("%s: %d of %d translations took this path", p.name, got, runs+1)
				}
				if allocs != 0 {
					t.Errorf("%s: %.1f allocs per translation, want 0", p.name, allocs)
				}
			}
		})
	}
}
