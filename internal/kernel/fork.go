package kernel

import (
	"fmt"

	"babelfish/internal/memdefs"
	"babelfish/internal/pgtable"
	"babelfish/internal/physmem"
)

// CreateProcess creates the first process of a group (the container
// template / parent). Its layout offsets follow the configured ASLR mode.
func (k *Kernel) CreateProcess(g *Group, name string) (*Process, error) {
	tables, err := pgtable.New(k.Mem)
	if err != nil {
		return nil, err
	}
	// Intermediate table frames go through the reclaiming allocator so
	// page-table growth also survives memory pressure.
	tables.AllocTable = func() (memdefs.PPN, error) {
		return k.allocFrame(physmem.FrameTable)
	}
	p := &Process{
		PID:    k.nextPID,
		PCID:   k.nextPCID,
		CCID:   g.CCID,
		Name:   name,
		Group:  g,
		Tables: tables,
		kern:   k,
	}
	k.nextPID++
	k.nextPCID++
	p.procOff = k.procOffsets(g, p.PID)
	k.procs[p.PID] = p
	g.members[p.PID] = p
	return p, nil
}

// procOffsets picks the per-process segment offsets. Only BabelFish with
// ASLR-HW randomizes per process; the baseline inherits the parent layout
// on fork (containers are created with forks, Section I) and ASLR-SW uses
// one layout per group.
func (k *Kernel) procOffsets(g *Group, pid memdefs.PID) [NumSegs]memdefs.VAddr {
	if k.Cfg.Mode == ModeBabelFish && k.Cfg.ASLR == ASLRHW {
		return aslrOffsets(g.seed ^ splitmix64(uint64(pid)))
	}
	return g.groupOff
}

// Fork spawns a child process from parent, reproducing Linux lazy-CoW
// semantics. It returns the child and the kernel cycles consumed.
//
// Baseline: the child receives a private copy of every populated level of
// the parent's page tables; writable private pages become CoW in both
// processes, and the parent's TLB entries are flushed to revoke write
// permission (one shootdown round).
//
// BabelFish: the child links the group's shared sub-tables into its PMD
// entries — no per-entry copying, no write-permission change (entries in
// shared tables are CoW from birth), and therefore no shootdown. Private
// (Owned) tables of the parent are deep-copied like the baseline.
func (k *Kernel) Fork(parent *Process, name string) (*Process, memdefs.Cycles, error) {
	child, err := k.CreateProcess(parent.Group, name)
	if err != nil {
		return nil, 0, err
	}
	k.stats.Forks++
	child.vmas = append([]*VMA(nil), parent.vmas...)
	cycles := k.Cfg.Costs.ForkBase

	var c memdefs.Cycles
	if k.Cfg.Mode == ModeBabelFish {
		c, err = k.forkShared(parent, child)
	} else {
		c, err = k.forkCopy(parent, child)
	}
	if err != nil {
		// Unwind the half-built child: Exit releases whatever tables
		// and references it accumulated before the failure.
		child.Exit()
		return nil, 0, err
	}
	return child, cycles + c, nil
}

// forkCopy implements the baseline deep copy.
func (k *Kernel) forkCopy(parent, child *Process) (memdefs.Cycles, error) {
	copied, downgraded, err := k.copyLeaves(parent, child, false)
	if err != nil {
		return 0, err
	}
	k.stats.ForkCopiedPTEs += copied
	cycles := memdefs.Cycles(copied) * k.Cfg.Costs.ForkPerEntry
	if downgraded {
		// One shootdown round revokes the parent's stale write-permitted
		// TLB entries.
		cycles += k.flushProcess(parent)
	}
	return cycles, nil
}

// copyLeaves deep-copies the parent's present leaves into the child,
// downgrading writable MAP_PRIVATE leaves to read-only CoW on both sides.
// With skipShared set it leaves out the leaves that live in a group-shared
// table: the child links those instead. It reports how many leaves it
// copied and whether it downgraded any parent entry.
func (k *Kernel) copyLeaves(parent, child *Process, skipShared bool) (copied uint64, downgraded bool, err error) {
	g := parent.Group
	parent.Tables.VisitLeaves(func(gva memdefs.VAddr, lvl memdefs.Level, table memdefs.PPN, idx int, e pgtable.Entry) {
		if err != nil || !e.Present() {
			return
		}
		if skipShared {
			// Covered by a shared PTE table (directly registered, or a
			// child of a shared PMD table under PMD-level sharing), or a
			// huge leaf of a shared PMD table?
			if lvl == memdefs.LvlPTE {
				if shared, ok := k.sharedTableFor(g, gva); ok && shared == table {
					return
				}
			} else if shared, ok := g.sharedPMD[regionKey1G(gva)]; ok && shared == table {
				return
			}
		}
		vma, ok := parent.FindVMA(gva)
		if !ok {
			return // stale mapping outside any VMA; skip
		}
		ne := e
		if vma.Private && e.Writable() {
			ne = e.Without(pgtable.FlagWrite).With(pgtable.FlagCoW)
			k.Mem.WriteEntry(table, idx, uint64(ne))
			downgraded = true
		}
		k.Mem.Ref(e.PPN())
		if err = child.Tables.SetEntry(gva, lvl, ne); err != nil {
			k.Mem.Unref(e.PPN())
			return
		}
		copied++
	})
	return copied, downgraded, err
}

// forkShared implements BabelFish fork: link every group-shared table
// covering the parent's VMAs into the child, and deep-copy the parent's
// private (Owned) tables.
func (k *Kernel) forkShared(parent, child *Process) (memdefs.Cycles, error) {
	var cycles memdefs.Cycles
	var linked uint64

	// Sweep: downgrade writable MAP_PRIVATE entries in shared tables to
	// read-only CoW before the child can use them. This only finds work
	// the first time a populated template is forked; later forks see the
	// entries already CoW.
	cycles += k.sweepSharedCoW(parent)

	// Link shared PTE tables, in sorted key order: LinkTable grows the
	// child's upper tables on demand, so iteration order decides frame
	// allocation order and must not depend on map layout.
	for _, key := range sortedKeys(parent.Group.sharedPTE) {
		tablePPN := parent.Group.sharedPTE[key]
		gva := memdefs.VAddr(key) << memdefs.HugePageShift2M
		if _, ok := child.FindVMA(gva); !ok {
			continue
		}
		// Skip regions where the parent diverged; the child still links
		// the shared table (it shares the clean pages, not the parent's
		// private copies).
		if err := child.Tables.LinkTable(gva, memdefs.LvlPMD, tablePPN); err != nil {
			return 0, fmt.Errorf("fork link: %w", err)
		}
		orpc := parent.Group.orpcFor(gva)
		if orpc {
			k.setPMDORPC(child, gva, true)
		}
		linked++
	}
	// Link shared PMD tables (huge-page merging), sorted like the PTE
	// links above.
	for _, key := range sortedKeys(parent.Group.sharedPMD) {
		tablePPN := parent.Group.sharedPMD[key]
		gva := memdefs.VAddr(key) << memdefs.HugePageShift1G
		if _, ok := child.FindVMA(gva); !ok {
			continue
		}
		if err := child.Tables.LinkTable(gva, memdefs.LvlPUD, tablePPN); err != nil {
			return 0, fmt.Errorf("fork link pmd: %w", err)
		}
		linked++
	}
	k.stats.ForkLinkedTables += linked
	cycles += memdefs.Cycles(linked) * k.Cfg.Costs.LinkTables

	// Deep-copy the parent's private (Owned) leaf entries.
	copied, _, err := k.copyLeaves(parent, child, true)
	if err != nil {
		return 0, err
	}
	if copied > 0 {
		k.stats.ForkCopiedPTEs += copied
		cycles += memdefs.Cycles(copied)*k.Cfg.Costs.ForkPerEntry + k.flushProcess(parent)
	}
	return cycles, nil
}

// sweepSharedCoW converts writable MAP_PRIVATE entries in the group's
// shared PTE tables to read-only CoW, flushing the TLBs of every member
// when anything changed.
func (k *Kernel) sweepSharedCoW(parent *Process) memdefs.Cycles {
	g := parent.Group
	var downgraded uint64
	sweepPTE := func(tbl memdefs.PPN, base memdefs.VAddr) {
		entries := k.Mem.Table(tbl)
		for i := 0; i < memdefs.TableSize; i++ {
			e := pgtable.Entry(entries[i])
			if !e.Present() || !e.Writable() || e.Huge() {
				continue
			}
			gva := base + memdefs.VAddr(i)*memdefs.PageSize
			vma, ok := parent.FindVMA(gva)
			if !ok || !vma.Private {
				continue // MAP_SHARED stays writable
			}
			entries[i] = uint64(e.Without(pgtable.FlagWrite).With(pgtable.FlagCoW))
			downgraded++
		}
	}
	for _, key := range sortedKeys(g.sharedPTE) {
		sweepPTE(g.sharedPTE[key], memdefs.VAddr(key)<<memdefs.HugePageShift2M)
	}
	// Under PMD-level sharing, sweep every PTE table under each shared
	// PMD table.
	for _, key := range sortedKeys(g.sharedPMD) {
		pmd := g.sharedPMD[key]
		base1g := memdefs.VAddr(key) << memdefs.HugePageShift1G
		entries := k.Mem.Table(pmd)
		for i := 0; i < memdefs.TableSize; i++ {
			e := pgtable.Entry(entries[i])
			if e.PPN() == 0 || e.Huge() {
				continue
			}
			sweepPTE(e.PPN(), base1g+memdefs.VAddr(i)*memdefs.HugePageSize2M)
		}
	}
	if downgraded == 0 {
		return 0
	}
	if k.Hooks != nil {
		for _, m := range g.members {
			k.Hooks.FlushProcess(m.PCID)
		}
	}
	k.stats.Shootdowns++
	return memdefs.Cycles(downgraded)*k.Cfg.Costs.ForkPerEntry +
		memdefs.Cycles(k.numRemoteCores()+1)*k.Cfg.Costs.ShootdownPer
}

// orpcFor reports whether any process holds a private copy in the 2MB
// region (the region's PC bitmask is non-zero).
func (g *Group) orpcFor(gva memdefs.VAddr) bool {
	mp, _ := g.maskPageFor(memdefs.PageVPN(gva), false) // lookup-only: cannot fail
	if mp == nil {
		return false
	}
	return mp.MaskAt(memdefs.LvlPMD.Index(gva)) != 0
}

// setPMDORPC sets or clears the ORPC bit in a process's pmd_t for gva's
// region (Figure 5a) and drops stale PWC copies of that entry.
func (k *Kernel) setPMDORPC(p *Process, gva memdefs.VAddr, on bool) {
	pmdTable := p.Tables.TableAt(gva, memdefs.LvlPMD)
	if pmdTable == 0 {
		return
	}
	idx := memdefs.LvlPMD.Index(gva)
	e := pgtable.Entry(k.Mem.ReadEntry(pmdTable, idx))
	if e.PPN() == 0 {
		return
	}
	ne := e
	if on {
		ne = e.With(pgtable.FlagORPC)
	} else {
		ne = e.Without(pgtable.FlagORPC)
	}
	if ne != e {
		k.Mem.WriteEntry(pmdTable, idx, uint64(ne))
		k.invalidatePWC(memdefs.LvlPMD, entryAddrOf(pmdTable, idx))
	}
}
