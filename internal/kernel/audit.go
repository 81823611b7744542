package kernel

import (
	"fmt"
	"sort"

	"babelfish/internal/memdefs"
	"babelfish/internal/pgtable"
	"babelfish/internal/physmem"
)

// AuditReport is the result of a kernel-level invariant audit.
type AuditReport struct {
	Violations []string

	TablesWalked      int    // distinct physical table frames reached
	FramesChecked     int    // allocated frames whose refcounts were verified
	TLBEntriesChecked int    // valid TLB entries cross-checked against live PTEs
	BugPanicCount     uint64 // kernel.bug() invariant panics observed process-wide
}

// OK reports whether the audit found no violations.
func (r AuditReport) OK() bool { return len(r.Violations) == 0 }

// String renders the report for CLI output.
func (r AuditReport) String() string {
	s := fmt.Sprintf("kernel audit: %d tables walked, %d frames checked, %d violations",
		r.TablesWalked, r.FramesChecked, len(r.Violations))
	if r.TLBEntriesChecked > 0 {
		s = fmt.Sprintf("%s (%d TLB entries cross-checked)", s, r.TLBEntriesChecked)
	}
	for _, v := range r.Violations {
		s += "\n  - " + v
	}
	return s
}

func (r *AuditReport) violate(format string, args ...interface{}) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// auditQueueItem is one physical table frame awaiting a BFS visit, with
// the level its entries belong to.
type auditQueueItem struct {
	table memdefs.PPN
	lvl   memdefs.Level
}

// Audit cross-checks the kernel's view of memory against the allocator's
// refcounts:
//
//   - every allocated frame's reference count must equal the references
//     the kernel can account for (page-table entry edges, process roots,
//     group shared-table registries, page-cache residency, MaskPage
//     frames, and the kernel zero page);
//   - group-shared tables must be referenced exactly once by the registry
//     plus once per member actually linking them;
//   - a NoPCBitmask kernel holds no MaskPage: every exit from sharing
//     reverts its region instead;
//   - no group-shared PTE table holds an O-tagged (private) leaf;
//   - every allocated frame must be reachable from some accounting root —
//     anything else is a leak.
//
// The walk visits each physical table frame once (shared tables are
// reachable from several processes), so parent-entry edges are counted
// correctly under BabelFish sharing. Call it at quiesce points; it takes
// no locks beyond physmem's per-call locking.
func (k *Kernel) Audit() AuditReport {
	r := AuditReport{BugPanicCount: BugCount()}

	expected := make(map[memdefs.PPN]int)
	levelOf := make(map[memdefs.PPN]memdefs.Level)
	var queue []auditQueueItem
	enqueue := func(tbl memdefs.PPN, lvl memdefs.Level) {
		if have, seen := levelOf[tbl]; seen {
			if have != lvl {
				r.violate("table frame %d reached at both level %v and level %v", tbl, have, lvl)
			}
			return
		}
		levelOf[tbl] = lvl
		queue = append(queue, auditQueueItem{tbl, lvl})
	}

	// Roots: each live process owns one reference on its PGD.
	procs := k.Processes()
	sort.Slice(procs, func(a, b int) bool { return procs[a].PID < procs[b].PID })
	for _, p := range procs {
		expected[p.Tables.Root]++
		enqueue(p.Tables.Root, memdefs.LvlPGD)
	}
	// Registries: each group holds one reference per registered shared
	// table. The tables are walk roots of their own — a registered table
	// no member currently links is still reachable (and still holds
	// references on its children).
	groups := k.Groups()
	sort.Slice(groups, func(a, b int) bool { return groups[a].CCID < groups[b].CCID })
	for _, g := range groups {
		for _, key := range sortedKeys(g.sharedPTE) {
			tbl := g.sharedPTE[key]
			expected[tbl]++
			enqueue(tbl, memdefs.LvlPTE)
		}
		for _, key := range sortedKeys(g.sharedPMD) {
			tbl := g.sharedPMD[key]
			expected[tbl]++
			enqueue(tbl, memdefs.LvlPMD)
		}
		for _, key := range sortedKeys(g.maskPages) {
			expected[g.maskPages[key].Frame]++
		}
		if k.Cfg.NoPCBitmask && len(g.maskPages) > 0 {
			r.violate("group %d holds %d MaskPages under NoPCBitmask", g.CCID, len(g.maskPages))
		}
	}
	// The kernel's own reference on the shared zero page.
	expected[k.zeroPPN]++
	// Page-cache residency: one reference per resident page or block.
	fileNames := make([]string, 0, len(k.files))
	for name := range k.files {
		fileNames = append(fileNames, name)
	}
	sort.Strings(fileNames)
	for _, name := range fileNames {
		f := k.files[name]
		for _, ppn := range f.frames {
			if ppn != 0 {
				expected[ppn]++
			}
		}
		for _, base := range f.blocks {
			if base != 0 {
				expected[base]++
			}
		}
	}

	// BFS over physical table frames, each visited exactly once.
	for len(queue) > 0 {
		item := queue[0]
		queue = queue[1:]
		r.TablesWalked++
		if k.Mem.Kind(item.table) != physmem.FrameTable {
			r.violate("walk reached frame %d (%v) as a level-%v table", item.table, k.Mem.Kind(item.table), item.lvl)
			continue
		}
		entries := k.Mem.Table(item.table)
		for i := 0; i < memdefs.TableSize; i++ {
			e := pgtable.Entry(entries[i])
			if e.PPN() == 0 {
				continue
			}
			leaf := item.lvl == memdefs.LvlPTE || (e.Present() && e.Huge())
			if leaf {
				// Present leaves hold one reference on their data frame
				// (4KB page, or 2MB block base for huge leaves).
				if e.Present() {
					expected[e.PPN()]++
				}
				continue
			}
			expected[e.PPN()]++
			enqueue(e.PPN(), item.lvl+1)
		}
	}

	// Shared-table link counts: registry reference + one per linking
	// member (the per-edge accounting above must agree; this surfaces the
	// group-level story directly).
	for _, g := range groups {
		for _, key := range sortedKeys(g.sharedPTE) {
			tbl := g.sharedPTE[key]
			gva := memdefs.VAddr(key) << memdefs.HugePageShift2M
			links := 0
			for _, p := range procs {
				if p.Group == g && p.Tables.TableAt(gva, memdefs.LvlPTE) == tbl {
					links++
				}
			}
			if got := k.Mem.Refs(tbl); got != 1+links {
				r.violate("group %d shared PTE table %d (gva %#x): refs %d, want 1 registry + %d links",
					g.CCID, tbl, gva, got, links)
			}
		}
		for _, key := range sortedKeys(g.sharedPMD) {
			tbl := g.sharedPMD[key]
			gva := memdefs.VAddr(key) << memdefs.HugePageShift1G
			links := 0
			for _, p := range procs {
				if p.Group == g && p.Tables.TableAt(gva, memdefs.LvlPMD) == tbl {
					links++
				}
			}
			if got := k.Mem.Refs(tbl); got != 1+links {
				r.violate("group %d shared PMD table %d (gva %#x): refs %d, want 1 registry + %d links",
					g.CCID, tbl, gva, got, links)
			}
		}
	}

	// Ownership: an O-tagged leaf maps a page private to one process, so
	// none may sit in a table the group shares, where every member linking
	// the table would map it.
	for _, g := range groups {
		for _, key := range sortedKeys(g.sharedPTE) {
			r.auditOwnedLeaves(k, g, g.sharedPTE[key], memdefs.LvlPTE)
		}
		for _, key := range sortedKeys(g.sharedPMD) {
			r.auditOwnedLeaves(k, g, g.sharedPMD[key], memdefs.LvlPMD)
		}
	}

	// Compare expectations against the allocator, and catch leaks:
	// allocated frames the kernel cannot account for.
	k.Mem.ForEachAllocated(func(ppn memdefs.PPN, f physmem.Frame) {
		want, reachable := expected[ppn]
		if !reachable {
			if f.Refs == 0 {
				// Tail frame of a live 2MB block: the base carries the
				// block's references and is checked on its own.
				base := ppn &^ memdefs.PPN(memdefs.TableSize-1)
				if _, ok := expected[base]; ok {
					return
				}
			}
			r.violate("leaked frame %d (%v, refs %d): allocated but unreachable from any kernel root", ppn, f.Kind, f.Refs)
			return
		}
		r.FramesChecked++
		if int(f.Refs) != want {
			r.violate("frame %d (%v): refcount %d, kernel accounts for %d", ppn, f.Kind, f.Refs, want)
		}
	})
	return r
}

// auditOwnedLeaves reports every present O-tagged leaf of a group-shared
// PTE table: tbl itself at level PTE, or each PTE table tbl links at
// level PMD.
func (r *AuditReport) auditOwnedLeaves(k *Kernel, g *Group, tbl memdefs.PPN, lvl memdefs.Level) {
	if k.Mem.Kind(tbl) != physmem.FrameTable {
		return // reported by the walk
	}
	for i, raw := range k.Mem.Table(tbl) {
		e := pgtable.Entry(raw)
		switch {
		case lvl == memdefs.LvlPMD && e.PPN() != 0 && !(e.Present() && e.Huge()):
			r.auditOwnedLeaves(k, g, e.PPN(), memdefs.LvlPTE)
		case lvl == memdefs.LvlPTE && e.Present() && e.Owned():
			r.violate("group %d shared PTE table %d entry %d: O-tagged private leaf (frame %d)", g.CCID, tbl, i, e.PPN())
		}
	}
}

// sortedKeys returns a map's uint64 keys in ascending order, so audit
// output and walk order are deterministic.
func sortedKeys[V any](m map[uint64]V) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	return keys
}
