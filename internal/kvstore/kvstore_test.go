package kvstore

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestBTreeStructure(t *testing.T) {
	tr, err := NewBTree(100_000, 128, 64)
	if err != nil {
		t.Fatal(err)
	}
	// 100k keys / 64 per leaf = 1563 leaves; /128 = 13 inner; /128 = 1 root.
	if tr.Height() != 3 {
		t.Fatalf("height = %d, want 3", tr.Height())
	}
	if tr.Pages() != 1+13+1563 {
		t.Fatalf("pages = %d", tr.Pages())
	}
	path := tr.PagePath(0)
	if len(path) != 3 || path[0] != 0 {
		t.Fatalf("path(0) = %v", path)
	}
}

func TestBTreePathInvariantsQuick(t *testing.T) {
	tr, err := NewBTree(50_000, 64, 32)
	if err != nil {
		t.Fatal(err)
	}
	f := func(k uint32) bool {
		key := int(k) % tr.Keys
		path := tr.PagePath(key)
		if len(path) != tr.Height() {
			return false
		}
		// Root is always page 0; pages are strictly increasing down the
		// levels (breadth-first layout); all within bounds.
		if path[0] != 0 {
			return false
		}
		for i := 1; i < len(path); i++ {
			if path[i] <= path[i-1] || int(path[i]) >= tr.Pages() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBTreeAdjacentKeysShareLeaf(t *testing.T) {
	tr, _ := NewBTree(10_000, 32, 16)
	if tr.LeafPage(0) != tr.LeafPage(15) {
		t.Error("keys 0 and 15 on different leaves")
	}
	if tr.LeafPage(0) == tr.LeafPage(16) {
		t.Error("keys 0 and 16 share a leaf")
	}
	// Monotone leaves.
	last := PageID(-1)
	for k := 0; k < 10_000; k += 16 {
		p := tr.LeafPage(k)
		if p <= last {
			t.Fatalf("leaf pages not monotone at key %d", k)
		}
		last = p
	}
}

func TestBTreeHotRoot(t *testing.T) {
	tr, _ := NewBTree(100_000, 128, 64)
	// Every lookup passes through the root: the hot index pages are the
	// small top of the tree — the property the TLB-sharing effect relies
	// on.
	counts := map[PageID]int{}
	for k := 0; k < 10_000; k += 7 {
		for _, p := range tr.PagePath(k) {
			counts[p]++
		}
	}
	if counts[0] < 1000 {
		t.Fatalf("root touched only %d times", counts[0])
	}
}

func TestBTreeRightmostPath(t *testing.T) {
	tr, _ := NewBTree(10_000, 32, 16)
	p := tr.RightmostPath()
	if p[len(p)-1] != tr.LeafPage(tr.Keys-1) {
		t.Fatal("rightmost path does not end at the last leaf")
	}
}

func TestBTreeValidation(t *testing.T) {
	for _, bad := range [][3]int{{0, 2, 1}, {10, 1, 1}, {10, 2, 0}} {
		if _, err := NewBTree(bad[0], bad[1], bad[2]); err == nil {
			t.Errorf("parameters %v accepted", bad)
		}
	}
	// A tiny tree is a single leaf-root.
	tr, err := NewBTree(5, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Height() != 1 || tr.Pages() != 1 {
		t.Fatalf("tiny tree: height %d pages %d", tr.Height(), tr.Pages())
	}
}

func TestLSMStructure(t *testing.T) {
	l, err := NewLSM(100_000, 64, 4, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Levels) != 4 { // L0 + 3 leveled tiers
		t.Fatalf("levels = %d", len(l.Levels))
	}
	if l.Pages() < 100_000/64 {
		t.Fatalf("pages = %d — too few to hold the data", l.Pages())
	}
	// Leveled tiers grow.
	sz := func(lv lsmLevel) int {
		n := 0
		for _, r := range lv.runs {
			n += r.dataN
		}
		return n
	}
	if !(sz(l.Levels[3]) > sz(l.Levels[2]) && sz(l.Levels[2]) > sz(l.Levels[1])) {
		t.Fatalf("tiers not growing: %d %d %d", sz(l.Levels[1]), sz(l.Levels[2]), sz(l.Levels[3]))
	}
}

func TestLSMLookupInvariantsQuick(t *testing.T) {
	l, err := NewLSM(50_000, 64, 4, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	f := func(k uint32, salt uint64) bool {
		key := int(k) % l.Keys
		pages := l.Lookup(key, salt)
		if len(pages) < 2 {
			return false // at least one bloom + the data path
		}
		for _, p := range pages {
			if int(p) < 0 || int(p) >= l.Pages() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLSMRecentKeysResolveInL0(t *testing.T) {
	l, _ := NewLSM(50_000, 64, 4, 3, 10)
	// With a non-zero owner salt, the lookup must stop in L0 (short path).
	hot := l.Lookup(123, 1)
	cold := l.Lookup(123, 0)
	if len(hot) >= len(cold) {
		t.Fatalf("L0-resident lookup (%d pages) not shorter than leveled lookup (%d)", len(hot), len(cold))
	}
}

func TestLSMDeterministic(t *testing.T) {
	a, _ := NewLSM(10_000, 64, 2, 2, 8)
	b, _ := NewLSM(10_000, 64, 2, 2, 8)
	for k := 0; k < 1000; k += 13 {
		pa, pb := a.Lookup(k, uint64(k)), b.Lookup(k, uint64(k))
		if len(pa) != len(pb) {
			t.Fatal("nondeterministic lookup")
		}
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatal("nondeterministic lookup pages")
			}
		}
	}
}

// TestAppendVariantsReuseBuffer: the Append forms keep dst's prefix, add
// exactly the pages the allocating forms return, and once the buffer is
// large enough they do not allocate.
func TestAppendVariantsReuseBuffer(t *testing.T) {
	tr, _ := NewBTree(100_000, 128, 64)
	l, _ := NewLSM(50_000, 64, 4, 3, 10)
	prefix := []PageID{-7, -8}
	for k := -3; k < 100_003; k += 997 {
		salt := uint64(k % 3)
		for _, c := range []struct {
			name      string
			want, got []PageID
		}{
			{"AppendPagePath", tr.PagePath(k), tr.AppendPagePath(slices.Clone(prefix), k)},
			{"AppendLookup", l.Lookup(k, salt), l.AppendLookup(slices.Clone(prefix), k, salt)},
		} {
			if !slices.Equal(c.got[:len(prefix)], prefix) || !slices.Equal(c.got[len(prefix):], c.want) {
				t.Fatalf("%s key %d: got %v, want %v after prefix %v", c.name, k, c.got, c.want, prefix)
			}
		}
	}
	buf := make([]PageID, 0, 16)
	if a := testing.AllocsPerRun(100, func() {
		buf = tr.AppendPagePath(buf[:0], 4242)
		buf = l.AppendLookup(buf[:0], 4242, 1)
	}); a != 0 {
		t.Fatalf("%.1f allocs per reused lookup, want 0", a)
	}
}
