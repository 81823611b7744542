package pgtable

import (
	"fmt"

	"babelfish/internal/memdefs"
	"babelfish/internal/physmem"
)

// Tables is one process's page-table radix tree. Root is the frame holding
// the PGD; CR3 points at it. The PGD is always private to the process
// (Section IV-B: BabelFish never shares PGD tables); lower-level tables may
// be shared between processes, tracked by physmem frame reference counts.
type Tables struct {
	Mem  *physmem.Memory
	Root memdefs.PPN
	// AllocTable, when set, replaces the direct physmem allocation of
	// intermediate table frames — the kernel points it at its reclaiming
	// allocator so table allocations also survive memory pressure.
	AllocTable func() (memdefs.PPN, error)
}

// allocTableFrame allocates one table frame through the configured seam.
func (t *Tables) allocTableFrame() (memdefs.PPN, error) {
	if t.AllocTable != nil {
		return t.AllocTable()
	}
	return t.Mem.Alloc(physmem.FrameTable)
}

// New allocates an empty page-table tree (just a PGD frame).
func New(mem *physmem.Memory) (*Tables, error) {
	root, err := mem.Alloc(physmem.FrameTable)
	if err != nil {
		return nil, err
	}
	return &Tables{Mem: mem, Root: root}, nil
}

// WalkStep describes one level visited during a walk.
type WalkStep struct {
	Level     memdefs.Level
	TablePPN  memdefs.PPN   // frame of the table consulted
	Index     int           // entry index within that table
	EntryAddr memdefs.PAddr // physical address the hardware walker fetches
	Entry     Entry         // entry value read
}

// WalkResult is the outcome of a software traversal for one address.
type WalkResult struct {
	Steps []WalkStep
	// Complete is true when a present leaf mapping was found.
	Complete bool
	// Leaf is the final translation entry (PTE, or huge PMD/PUD entry).
	Leaf Entry
	// LeafLevel is the level the leaf was found at (LvlPTE, or LvlPMD /
	// LvlPUD for huge pages).
	LeafLevel memdefs.Level
	// Size is the page-size class of the mapping.
	Size memdefs.PageSizeClass
	// MissLevel is the level whose entry was non-present when !Complete.
	MissLevel memdefs.Level
	// MissEntry is that non-present entry's raw value (may carry CoW or
	// software state even when not present).
	MissEntry Entry
}

// PPNFor computes the translated frame for va given the walk result,
// accounting for huge-page offsets.
func (w *WalkResult) PPNFor(va memdefs.VAddr) memdefs.PPN {
	base := w.Leaf.PPN()
	switch w.Size {
	case memdefs.Page2M:
		return base + memdefs.PPN((uint64(va)>>memdefs.PageShift)&(memdefs.TableSize-1))
	case memdefs.Page1G:
		return base + memdefs.PPN((uint64(va)>>memdefs.PageShift)&(memdefs.TableSize*memdefs.TableSize-1))
	default:
		return base
	}
}

// Walk performs a software page walk for va, recording every level
// visited. It never allocates.
func (t *Tables) Walk(va memdefs.VAddr) WalkResult {
	res := WalkResult{Steps: make([]WalkStep, 0, memdefs.NumLevels)}
	table := t.Root
	for lvl := memdefs.LvlPGD; ; lvl++ {
		idx := lvl.Index(va)
		e := Entry(t.Mem.ReadEntry(table, idx))
		res.Steps = append(res.Steps, WalkStep{
			Level:     lvl,
			TablePPN:  table,
			Index:     idx,
			EntryAddr: physmem.EntryAddr(table, idx),
			Entry:     e,
		})
		switch {
		case lvl == memdefs.LvlPTE:
			res.LeafLevel = lvl
			res.Leaf = e
			res.Size = memdefs.Page4K
			res.Complete = e.Present()
			if !e.Present() {
				res.MissLevel = lvl
				res.MissEntry = e
			}
			return res
		case e.Present() && e.Huge():
			res.LeafLevel = lvl
			res.Leaf = e
			if lvl == memdefs.LvlPMD {
				res.Size = memdefs.Page2M
			} else {
				res.Size = memdefs.Page1G
			}
			res.Complete = true
			return res
		case !e.Present():
			// A non-present intermediate entry may still point at an
			// allocated next-level table (lazy population keeps tables but
			// clears Present on leaves only); in this model a zero entry
			// means "no table".
			if e.PPN() == 0 {
				res.MissLevel = lvl
				res.MissEntry = e
				return res
			}
			// Table exists but entry marked non-present: treat as miss at
			// this level (kernel decides what it means).
			res.MissLevel = lvl
			res.MissEntry = e
			return res
		default:
			table = e.PPN()
		}
	}
}

// tableFlags are the flags given to intermediate-level entries.
const tableFlags = FlagPresent | FlagWrite | FlagUser

// EnsureTable walks down to the table at level `to` that covers va,
// allocating intermediate tables as needed, and returns its frame number.
// `to` must be LvlPUD, LvlPMD or LvlPTE (the returned table holds entries
// of that level).
func (t *Tables) EnsureTable(va memdefs.VAddr, to memdefs.Level) (memdefs.PPN, error) {
	if to <= memdefs.LvlPGD || to > memdefs.LvlPTE {
		return 0, fmt.Errorf("pgtable: EnsureTable to invalid level %v", to)
	}
	table := t.Root
	for lvl := memdefs.LvlPGD; lvl < to; lvl++ {
		idx := lvl.Index(va)
		e := Entry(t.Mem.ReadEntry(table, idx))
		if e.Present() && e.Huge() {
			return 0, fmt.Errorf("pgtable: huge mapping at %v blocks table for %#x", lvl, va)
		}
		if e.PPN() == 0 {
			child, err := t.allocTableFrame()
			if err != nil {
				return 0, err
			}
			t.Mem.WriteEntry(table, idx, uint64(MakeEntry(child, tableFlags)))
			table = child
		} else {
			table = e.PPN()
		}
	}
	return table, nil
}

// TableAt returns the frame of the table at level `to` covering va, or 0
// if the path is not populated (or blocked by a huge mapping).
func (t *Tables) TableAt(va memdefs.VAddr, to memdefs.Level) memdefs.PPN {
	table := t.Root
	for lvl := memdefs.LvlPGD; lvl < to; lvl++ {
		e := Entry(t.Mem.ReadEntry(table, lvl.Index(va)))
		if e.PPN() == 0 || (e.Present() && e.Huge()) {
			return 0
		}
		table = e.PPN()
	}
	return table
}

// SetEntry writes the leaf entry for va at the given level (LvlPTE for 4KB
// pages; LvlPMD/LvlPUD with FlagPS for huge pages), allocating the path.
func (t *Tables) SetEntry(va memdefs.VAddr, lvl memdefs.Level, e Entry) error {
	table, err := t.EnsureTable(va, lvl)
	if err != nil {
		return err
	}
	t.Mem.WriteEntry(table, lvl.Index(va), uint64(e))
	return nil
}

// GetEntry reads the leaf entry for va at the given level; returns zero if
// the path is unpopulated.
func (t *Tables) GetEntry(va memdefs.VAddr, lvl memdefs.Level) Entry {
	table := t.TableAt(va, lvl)
	if table == 0 {
		return 0
	}
	return Entry(t.Mem.ReadEntry(table, lvl.Index(va)))
}

// Map4K installs a present 4KB translation.
func (t *Tables) Map4K(va memdefs.VAddr, ppn memdefs.PPN, flags Entry) error {
	return t.SetEntry(va, memdefs.LvlPTE, MakeEntry(ppn, flags|FlagPresent))
}

// Map2M installs a present 2MB huge translation. va must be 2MB-aligned
// and ppn must be the first frame of a 512-frame-aligned region.
func (t *Tables) Map2M(va memdefs.VAddr, ppn memdefs.PPN, flags Entry) error {
	if uint64(va)%memdefs.HugePageSize2M != 0 {
		return fmt.Errorf("pgtable: unaligned 2MB mapping at %#x", va)
	}
	return t.SetEntry(va, memdefs.LvlPMD, MakeEntry(ppn, flags|FlagPresent|FlagPS))
}

// LinkTable points this process's entry at `lvl` (the level of the entry,
// i.e. the parent level of the linked table) for va to an existing table
// frame owned (possibly) by another process, implementing BabelFish page
// table sharing (Figure 6). The linked table's reference count is
// incremented. lvl is the level of the *entry being written*: LvlPMD to
// share a PTE table, LvlPUD to share a PMD table, LvlPGD to share a PUD
// table.
func (t *Tables) LinkTable(va memdefs.VAddr, lvl memdefs.Level, tablePPN memdefs.PPN) error {
	if lvl >= memdefs.LvlPTE {
		return fmt.Errorf("pgtable: cannot link at level %v", lvl)
	}
	parent := t.Root
	if lvl > memdefs.LvlPGD {
		var err error
		parent, err = t.EnsureTable(va, lvl)
		if err != nil {
			return err
		}
	}
	idx := lvl.Index(va)
	old := Entry(t.Mem.ReadEntry(parent, idx))
	if old.PPN() == tablePPN {
		return nil // already linked
	}
	if old.PPN() != 0 {
		return fmt.Errorf("pgtable: entry at %v for %#x already populated", lvl, va)
	}
	t.Mem.Ref(tablePPN)
	t.Mem.WriteEntry(parent, idx, uint64(MakeEntry(tablePPN, tableFlags)))
	return nil
}

// UnlinkTable clears this process's entry pointing at a shared table and
// drops the table's reference. If the reference count reaches zero the
// subtree is reclaimed (its data-page references released via releaseData).
// Returns the remaining reference count of the table.
func (t *Tables) UnlinkTable(va memdefs.VAddr, lvl memdefs.Level, releaseData func(Entry)) (int, error) {
	parent := t.Root
	if lvl > memdefs.LvlPGD {
		parent = t.TableAt(va, lvl)
		if parent == 0 {
			return 0, fmt.Errorf("pgtable: no path to level %v for %#x", lvl, va)
		}
	}
	idx := lvl.Index(va)
	e := Entry(t.Mem.ReadEntry(parent, idx))
	if e.PPN() == 0 {
		return 0, fmt.Errorf("pgtable: entry at %v for %#x empty", lvl, va)
	}
	t.Mem.WriteEntry(parent, idx, 0)
	return ReleaseTable(t.Mem, e.PPN(), lvl+1, releaseData), nil
}

// ReleaseTable drops one reference on a table whose entries are at level
// lvl; if it was the last, it first releases the children recursively,
// handing each leaf entry to releaseData (if non-nil) so the kernel can
// unref data frames. Returns the table's remaining reference count.
func ReleaseTable(mem *physmem.Memory, table memdefs.PPN, lvl memdefs.Level, releaseData func(Entry)) int {
	if mem.Refs(table) > 1 {
		return mem.Unref(table)
	}
	entries := mem.Table(table)
	for i := 0; i < memdefs.TableSize; i++ {
		e := Entry(entries[i])
		if e.PPN() == 0 {
			continue
		}
		if lvl == memdefs.LvlPTE || (e.Present() && e.Huge()) {
			if releaseData != nil {
				releaseData(e)
			}
			continue
		}
		ReleaseTable(mem, e.PPN(), lvl+1, releaseData)
	}
	return mem.Unref(table)
}

// Release tears down the whole tree (process exit). Shared sub-tables
// survive if other processes still reference them.
func (t *Tables) Release(releaseData func(Entry)) {
	ReleaseTable(t.Mem, t.Root, memdefs.LvlPGD, releaseData)
	t.Root = 0
}

// VisitLeaves walks the entire populated tree, invoking fn for every leaf
// entry (present or not) with its virtual address, level, and owning table
// frame. Used for Figure-9-style characterization.
func (t *Tables) VisitLeaves(fn func(va memdefs.VAddr, lvl memdefs.Level, table memdefs.PPN, idx int, e Entry)) {
	t.visit(t.Root, memdefs.LvlPGD, 0, fn)
}

func (t *Tables) visit(table memdefs.PPN, lvl memdefs.Level, base memdefs.VAddr, fn func(memdefs.VAddr, memdefs.Level, memdefs.PPN, int, Entry)) {
	entries := t.Mem.Table(table)
	span := memdefs.VAddr(1) << lvl.IndexShift()
	for i := 0; i < memdefs.TableSize; i++ {
		e := Entry(entries[i])
		if e.Zero() {
			continue
		}
		va := base + memdefs.VAddr(i)*span
		if lvl == memdefs.LvlPTE || (e.Present() && e.Huge()) || (lvl < memdefs.LvlPTE && e.PPN() == 0) {
			fn(va, lvl, table, i, e)
			continue
		}
		t.visit(e.PPN(), lvl+1, va, fn)
	}
}

// CountTables returns the number of table frames reachable from the root,
// counting shared tables once per tree (the caller dedups across trees).
func (t *Tables) CountTables() int {
	n := 0
	var rec func(table memdefs.PPN, lvl memdefs.Level)
	rec = func(table memdefs.PPN, lvl memdefs.Level) {
		n++
		if lvl == memdefs.LvlPTE {
			return
		}
		entries := t.Mem.Table(table)
		for i := 0; i < memdefs.TableSize; i++ {
			e := Entry(entries[i])
			if e.PPN() == 0 || (e.Present() && e.Huge()) {
				continue
			}
			rec(e.PPN(), lvl+1)
		}
	}
	rec(t.Root, memdefs.LvlPGD)
	return n
}
