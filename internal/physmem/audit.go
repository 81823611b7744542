package physmem

import (
	"fmt"

	"babelfish/internal/memdefs"
)

// AuditReport is the result of an internal-consistency audit of a Memory.
// Violations is empty when the allocator's bookkeeping is coherent.
type AuditReport struct {
	Violations []string

	FramesTotal   int    // frames in the memory, including the reserved frame 0
	FramesInUse   int    // frames with Kind != FrameFree
	FreeListLen   int    // free 4KB frames: the free list plus the never-allocated range
	FreeBlocks    int    // free 2MB blocks
	BugPanicCount uint64 // process-wide physmem invariant panics observed
}

// OK reports whether the audit found no violations.
func (r AuditReport) OK() bool { return len(r.Violations) == 0 }

// String renders the report for CLI output.
func (r AuditReport) String() string {
	s := fmt.Sprintf("physmem audit: %d frames (%d in use, %d free-list, %d free blocks), %d violations",
		r.FramesTotal, r.FramesInUse, r.FreeListLen, r.FreeBlocks, len(r.Violations))
	for _, v := range r.Violations {
		s += "\n  - " + v
	}
	return s
}

func (r *AuditReport) violate(format string, args ...interface{}) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// Audit cross-checks the allocator's internal invariants: the free list
// and free-block list only hold free frames, no frame is free-listed
// twice, the never-allocated range [next, blockStart) is untouched and
// holds no free-list entry, allocated frames carry positive reference
// counts, table frames (and only table frames) carry entry arrays, huge
// blocks are coherent, and the allocated counter matches the frame map. It takes the Memory
// lock for the duration; call it at quiesce points (end of a run, between
// chaos iterations).
func (m *Memory) Audit() AuditReport {
	m.mu.Lock()
	defer m.mu.Unlock()

	r := AuditReport{
		FramesTotal:   m.nframes,
		FreeListLen:   m.freeFrames(),
		FreeBlocks:    len(m.blocks),
		BugPanicCount: BugPanics(),
	}

	onFree := make(map[memdefs.PPN]bool, len(m.free))
	for _, ppn := range m.free {
		if uint64(ppn) == 0 || uint64(ppn) >= uint64(m.nframes) {
			r.violate("free list holds out-of-range PPN %d", ppn)
			continue
		}
		if ppn >= m.next {
			r.violate("free list holds PPN %d, never allocated (bump pointer at %d)", ppn, m.next)
		}
		if onFree[ppn] {
			r.violate("PPN %d appears twice on the free list", ppn)
		}
		onFree[ppn] = true
		if f := m.peek(ppn); f.Kind != FrameFree {
			r.violate("free-listed frame %d has kind %v", ppn, f.Kind)
		} else if f.Refs != 0 {
			r.violate("free-listed frame %d has refcount %d", ppn, f.Refs)
		}
	}
	for ppn := m.next; ppn < m.blockStart; ppn++ {
		if f := m.peek(ppn); f.Kind != FrameFree || f.Refs != 0 || f.Table != nil {
			r.violate("never-allocated frame %d is in use (kind %v, refcount %d, table %t)",
				ppn, f.Kind, f.Refs, f.Table != nil)
		}
	}
	onBlock := make(map[memdefs.PPN]bool, len(m.blocks))
	for _, base := range m.blocks {
		if uint64(base) == 0 || uint64(base)+memdefs.TableSize > uint64(m.nframes) {
			r.violate("block list holds out-of-range base %d", base)
			continue
		}
		if uint64(base)%memdefs.TableSize != 0 {
			r.violate("free block base %d not 2MB aligned", base)
		}
		if onBlock[base] {
			r.violate("block base %d appears twice on the block list", base)
		}
		onBlock[base] = true
		for i := 0; i < memdefs.TableSize; i++ {
			ppn := base + memdefs.PPN(i)
			if f := m.peek(ppn); f.Kind != FrameFree {
				r.violate("frame %d of free block %d has kind %v", ppn, base, f.Kind)
			}
			if onFree[ppn] {
				r.violate("frame %d is on both the free list and free block %d", ppn, base)
			}
		}
	}

	inUse := 0
	for i := 1; i < m.nframes; i++ {
		ppn := memdefs.PPN(i)
		f := m.peek(ppn)
		switch f.Kind {
		case FrameFree:
			if f.Refs != 0 {
				r.violate("free frame %d has refcount %d", ppn, f.Refs)
			}
			if f.Table != nil {
				r.violate("free frame %d still holds a table array", ppn)
			}
		default:
			inUse++
			isBlockBase := f.BlockPages == memdefs.TableSize
			isBlockTail := !isBlockBase && f.Refs == 0
			if isBlockTail {
				// Tail frames of an allocated 2MB block carry the kind but
				// no references (the base holds the block's count). Verify a
				// live base exists.
				base := ppn &^ memdefs.PPN(memdefs.TableSize-1)
				bf := m.peek(base)
				if bf.BlockPages != memdefs.TableSize || bf.Kind == FrameFree || bf.Refs <= 0 {
					r.violate("allocated frame %d (%v) has zero refs and no live block base", ppn, f.Kind)
				}
			} else if f.Refs <= 0 {
				r.violate("allocated frame %d (%v) has refcount %d", ppn, f.Kind, f.Refs)
			}
			if onFree[ppn] {
				r.violate("allocated frame %d (%v) is on the free list", ppn, f.Kind)
			}
			if f.Kind == FrameTable && f.Table == nil {
				r.violate("table frame %d has no entry array", ppn)
			}
			if f.Kind != FrameTable && f.Table != nil {
				r.violate("non-table frame %d (%v) holds a table array", ppn, f.Kind)
			}
		}
	}
	r.FramesInUse = inUse
	if inUse != m.allocated {
		r.violate("allocated counter %d != %d frames in use", m.allocated, inUse)
	}
	return r
}
