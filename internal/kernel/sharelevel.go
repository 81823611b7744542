package kernel

import (
	"fmt"

	"babelfish/internal/memdefs"
	"babelfish/internal/pgtable"
	"babelfish/internal/physmem"
)

// Sharing at the PMD level (Section III-B: "Sharing can also occur at
// other levels. For example, it can occur at the PMD level — i.e.,
// entries in multiple PUD tables point to the base of the same PMD
// table. In this case, multiple processes can share the mapping of
// 512×512 4KB pages").
//
// With Config.ShareLevel == LvlPMD, group members link whole PMD tables
// (1GB of mappings) instead of individual PTE tables. PTE tables
// allocated under a shared PMD are implicitly shared. A CoW writer
// privatizes both levels (ensureOwnedTable): a private copy of the PMD
// table plus a private O-tagged copy of the written region's PTE table.

// pmdTableFor is pteTableFor's counterpart for ShareLevel == LvlPMD: it
// returns the PTE table the process should use, routing through the
// group-shared PMD table.
func (k *Kernel) pmdTableFor(p *Process, gva memdefs.VAddr) (table memdefs.PPN, isShared bool, cycles memdefs.Cycles, err error) {
	g := p.Group
	key := regionKey1G(gva)
	sharedPMD, has := g.sharedPMD[key]
	cur := p.Tables.TableAt(gva, memdefs.LvlPMD)

	switch {
	case cur == 0 && has:
		if err = p.Tables.LinkTable(gva, memdefs.LvlPUD, sharedPMD); err != nil {
			return 0, false, 0, err
		}
		k.stats.LinkFaults++
		cycles += k.Cfg.Costs.LinkTables
		cur = sharedPMD
	case cur == 0:
		cur, err = p.Tables.EnsureTable(gva, memdefs.LvlPMD)
		if err != nil {
			return 0, false, 0, err
		}
		k.Mem.Ref(cur)
		g.sharedPMD[key] = cur
		sharedPMD, has = cur, true
	}

	if has && cur == sharedPMD {
		// Shared path: the PTE table lives inside the shared PMD.
		idx := memdefs.LvlPMD.Index(gva)
		e := pgtable.Entry(k.Mem.ReadEntry(cur, idx))
		if e.PPN() == 0 {
			child, err := k.allocFrame(physmem.FrameTable)
			if err != nil {
				return 0, false, cycles, err
			}
			k.Mem.WriteEntry(cur, idx, uint64(pgtable.MakeEntry(child,
				pgtable.FlagPresent|pgtable.FlagWrite|pgtable.FlagUser)))
			return child, true, cycles, nil
		}
		if e.Huge() {
			return 0, false, cycles, errHugeUnderSharedPMD
		}
		return e.PPN(), true, cycles, nil
	}

	// Diverged: private PMD; ensure a private PTE table under it.
	table, err = p.Tables.EnsureTable(gva, memdefs.LvlPTE)
	return table, false, cycles, err
}

// errHugeUnderSharedPMD rejects mixing 4KB demand paging into a 2MB
// region that a shared PMD table already maps with a huge leaf.
var errHugeUnderSharedPMD = fmt.Errorf("kernel: 4KB fault under a huge-mapped entry of a shared PMD table")

// privatizePMD gives the process its own copy of the group's shared PMD
// table for gva's 1GB region (referencing all child PTE tables), rewiring
// its PUD entry. Returns the private PMD table.
func (k *Kernel) privatizePMD(p *Process, gva memdefs.VAddr) (memdefs.PPN, memdefs.Cycles, error) {
	g := p.Group
	key := regionKey1G(gva)
	sharedPMD, has := g.sharedPMD[key]
	cur := p.Tables.TableAt(gva, memdefs.LvlPMD)
	if !has || cur != sharedPMD {
		return cur, 0, nil // already private (or never shared)
	}
	newPMD, err := k.allocFrame(physmem.FrameTable)
	if err != nil {
		return 0, 0, err
	}
	src := k.Mem.Table(sharedPMD)
	dst := k.Mem.Table(newPMD)
	for i := 0; i < memdefs.TableSize; i++ {
		e := pgtable.Entry(src[i])
		if e.PPN() == 0 {
			continue
		}
		dst[i] = src[i]
		// The copy references the same children: PTE tables (or huge
		// data blocks).
		k.Mem.Ref(e.PPN())
	}
	pudTable, err := p.Tables.EnsureTable(gva, memdefs.LvlPUD)
	if err != nil {
		// The failed copy holds references on every child table; a bare
		// Unref would leak them all.
		k.releaseSharedTableAtLevel(newPMD, memdefs.LvlPMD)
		return 0, 0, err
	}
	pudIdx := memdefs.LvlPUD.Index(gva)
	k.Mem.WriteEntry(pudTable, pudIdx, uint64(pgtable.MakeEntry(newPMD,
		pgtable.FlagPresent|pgtable.FlagWrite|pgtable.FlagUser)))
	k.invalidatePWC(memdefs.LvlPUD, entryAddrOf(pudTable, pudIdx))
	k.Mem.Unref(sharedPMD)
	return newPMD, k.Cfg.Costs.PTEPageCopy, nil
}

// releaseSharedTableAtLevel releases a registry reference on a shared
// table whose entries are at the given level, recursing into child
// tables when it is the last reference.
func (k *Kernel) releaseSharedTableAtLevel(tbl memdefs.PPN, lvl memdefs.Level) {
	if k.Mem.Refs(tbl) > 1 {
		k.Mem.Unref(tbl)
		return
	}
	entries := k.Mem.Table(tbl)
	for i := 0; i < memdefs.TableSize; i++ {
		e := pgtable.Entry(entries[i])
		if e.PPN() == 0 {
			continue
		}
		if lvl == memdefs.LvlPTE || (e.Present() && e.Huge()) {
			if e.Present() {
				k.Mem.Unref(e.PPN())
			}
			continue
		}
		k.releaseSharedTableAtLevel(e.PPN(), lvl+1)
	}
	k.Mem.Unref(tbl)
}
