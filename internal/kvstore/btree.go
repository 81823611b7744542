// Package kvstore provides the page-level storage-engine substrates
// behind the paper's data-serving applications: a bulk-loaded B+tree
// (MongoDB's index over its memory-mapped collection) and a leveled LSM
// tree (ArangoDB's RocksDB engine). The engines do not store values —
// the simulator cares about which *pages* an operation touches — but
// their structures are real: fanouts, levels, and block placement decide
// the page paths, and the tests verify the structural invariants.
package kvstore

import (
	"fmt"
	"slices"
)

// PageID identifies a page of the store's file, starting at 0.
type PageID int

// BTree is a static, bulk-loaded B+tree over the keyspace [0, Keys).
// Level 0 is the root page; keys live in the leaves. Each node fills one
// page.
type BTree struct {
	Keys        int
	Fanout      int
	KeysPerLeaf int
	// levelStart[l] is the first PageID of level l; levels are stored
	// breadth-first: root first, leaves last.
	levelStart []PageID
	levelWidth []int
}

// NewBTree bulk-loads a tree. fanout is the children per inner node;
// keysPerLeaf the keys per leaf page.
func NewBTree(keys, fanout, keysPerLeaf int) (*BTree, error) {
	if keys < 1 || fanout < 2 || keysPerLeaf < 1 {
		return nil, fmt.Errorf("kvstore: invalid btree parameters (%d keys, fanout %d, %d keys/leaf)",
			keys, fanout, keysPerLeaf)
	}
	t := &BTree{Keys: keys, Fanout: fanout, KeysPerLeaf: keysPerLeaf}
	leaves := (keys + keysPerLeaf - 1) / keysPerLeaf
	// Widths from leaves up to the root.
	widths := []int{leaves}
	for widths[len(widths)-1] > 1 {
		w := (widths[len(widths)-1] + fanout - 1) / fanout
		widths = append(widths, w)
	}
	// Store breadth-first from the root.
	next := PageID(0)
	for l := len(widths) - 1; l >= 0; l-- {
		t.levelStart = append(t.levelStart, next)
		t.levelWidth = append(t.levelWidth, widths[l])
		next += PageID(widths[l])
	}
	return t, nil
}

// Height returns the number of levels (root..leaf).
func (t *BTree) Height() int { return len(t.levelWidth) }

// Pages returns the total page count of the tree.
func (t *BTree) Pages() int {
	n := 0
	for _, w := range t.levelWidth {
		n += w
	}
	return n
}

// PagePath returns the pages visited looking up a key: root, inner
// nodes, leaf. Keys out of range are clamped.
func (t *BTree) PagePath(key int) []PageID { return t.AppendPagePath(nil, key) }

// AppendPagePath appends key's PagePath to dst and returns the extended
// slice; reusing dst keeps a lookup free of allocations.
func (t *BTree) AppendPagePath(dst []PageID, key int) []PageID {
	if key < 0 {
		key = 0
	}
	if key >= t.Keys {
		key = t.Keys - 1
	}
	h := t.Height()
	dst = slices.Grow(dst, h)[:len(dst)+h]
	path := dst[len(dst)-h:]
	// Walk bottom-up computing each level's node index, then emit
	// top-down.
	idx := key / t.KeysPerLeaf
	for l := h - 1; l >= 0; l-- {
		if idx >= t.levelWidth[l] {
			idx = t.levelWidth[l] - 1
		}
		path[l] = t.levelStart[l] + PageID(idx)
		idx /= t.Fanout
	}
	return dst
}

// LeafPage returns just the leaf page of a key.
func (t *BTree) LeafPage(key int) PageID {
	p := t.PagePath(key)
	return p[len(p)-1]
}

// RightmostPath returns the insert path for an append (B+tree inserts of
// monotonically growing keys always land on the rightmost spine).
func (t *BTree) RightmostPath() []PageID {
	return t.PagePath(t.Keys - 1)
}
