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

// Fork spawns a child process from parent with Linux's lazy-CoW
// semantics and returns the child and the kernel cycles consumed. Both
// kernels run the same fork. The child first links the group's
// registered shared tables wherever the parent links them or holds no
// table yet (forkLinks, Figure 6); their entries are CoW from birth
// (sweepSharedCoW). Then a walk of the parent's page tables (forkTable)
// copies every present leaf the parent owns, writable MAP_PRIVATE leaves
// becoming read-only CoW on both sides. Where the parent left sharing for
// a region, the child leaves too, through assignPCBit, and its copies
// fill a private table of its own (Section III-A: private copies stay
// private). The baseline registers no shared tables, so its walk copies
// every leaf. One shootdown round revokes the parent's stale write
// permissions, only when the fork downgraded one of its writable entries.
func (k *Kernel) Fork(parent *Process, name string) (*Process, memdefs.Cycles, error) {
	child, err := k.CreateProcess(parent.Group, name)
	if err != nil {
		return nil, 0, err
	}
	k.stats.Forks++
	child.vmas = append([]*VMA(nil), parent.vmas...)
	cycles := k.Cfg.Costs.ForkBase + k.sweepSharedCoW(parent)
	f := forkWalk{parent: parent, child: child}
	g := parent.Group
	err = k.forkLinks(&f, g.sharedPTE, memdefs.HugePageShift2M, memdefs.LvlPMD)
	if err == nil {
		err = k.forkLinks(&f, g.sharedPMD, memdefs.HugePageShift1G, memdefs.LvlPUD)
	}
	if err == nil {
		err = k.forkTable(&f, parent.Tables.Root, memdefs.LvlPGD, 0)
	}
	if err != nil {
		// Unwind the half-built child: Exit releases whatever tables
		// and references it accumulated before the failure.
		child.Exit()
		return nil, 0, err
	}
	k.stats.ForkCopiedPTEs += f.copied
	k.stats.ForkLinkedTables += f.linked
	cycles += f.cycles + memdefs.Cycles(f.copied)*k.Cfg.Costs.ForkPerEntry + memdefs.Cycles(f.linked)*k.Cfg.Costs.LinkTables
	if f.downgraded {
		cycles += k.flushProcess(parent)
	}
	return child, cycles, nil
}

// forkWalk is one fork's progress: the leaves it copied, the shared
// tables it linked, whether it downgraded a parent entry, and the cycles
// the child spent leaving sharing.
type forkWalk struct {
	parent, child  *Process
	copied, linked uint64
	downgraded     bool
	cycles         memdefs.Cycles
}

// forkLinks links into the child each table of one shared-table registry
// (keyed by gva >> shift, linked from an entry at level lvl) that covers
// one of the child's VMAs, unless the parent holds a private table there.
// Key order: LinkTable grows the child's upper tables, so this order
// decides frame allocation and must not depend on map layout.
func (k *Kernel) forkLinks(f *forkWalk, tables map[uint64]memdefs.PPN, shift int, lvl memdefs.Level) error {
	for _, key := range sortedKeys(tables) {
		gva, tbl := memdefs.VAddr(key)<<shift, tables[key]
		_, inVMA := f.child.FindVMA(gva)
		if cur := f.parent.Tables.TableAt(gva, lvl+1); !inVMA || (cur != 0 && cur != tbl) {
			continue
		}
		if err := k.forkLink(f, gva, lvl, tbl); err != nil {
			return err
		}
	}
	return nil
}

// forkLink points the child's entry at level lvl for va at the group's
// shared table tbl.
func (k *Kernel) forkLink(f *forkWalk, va memdefs.VAddr, lvl memdefs.Level, tbl memdefs.PPN) error {
	if err := f.child.Tables.LinkTable(va, lvl, tbl); err != nil {
		return fmt.Errorf("fork link: %w", err)
	}
	if lvl == memdefs.LvlPMD {
		k.setORPC(f.child, va)
	}
	f.linked++
	return nil
}

// forkTable visits the parent's table whose entries are at level lvl and
// map the range starting at base. A shared table the parent links is not
// visited: the child links it too, if forkLinks has not already.
func (k *Kernel) forkTable(f *forkWalk, table memdefs.PPN, lvl memdefs.Level, base memdefs.VAddr) error {
	entries := k.Mem.Table(table)
	for i := range entries {
		e := pgtable.Entry(entries[i])
		if e.Zero() {
			continue
		}
		va := base + memdefs.VAddr(i)<<lvl.IndexShift()
		if lvl == memdefs.LvlPTE || (e.Present() && e.Huge()) {
			if e.Present() {
				if err := k.forkLeaf(f, table, i, va, lvl, e); err != nil {
					return err
				}
			}
			continue
		}
		if e.PPN() == 0 {
			continue
		}
		shared, ok := k.sharedBelow(f.parent.Group, va, lvl)
		if ok && shared == e.PPN() {
			if f.child.Tables.TableAt(va, lvl+1) == 0 {
				if err := k.forkLink(f, va, lvl, shared); err != nil {
					return err
				}
			}
			continue
		}
		if ok && lvl == memdefs.LvlPMD {
			// The parent left sharing for this 2MB region, and so does
			// the child, whose new PC bit no cached shared entry holds.
			_, c, err := k.assignPCBit(f.child, va)
			f.cycles += c + k.dropSharedTLB(f.parent.Group, va, va+memdefs.HugePageSize2M)
			if err != nil {
				return err
			}
		}
		if err := k.forkTable(f, e.PPN(), lvl+1, va); err != nil {
			return err
		}
	}
	return nil
}

// sharedBelow returns the group's shared table that an entry at level lvl
// for va points at when the process shares it: a PMD table under a pud_t,
// a PTE table under a pmd_t.
func (k *Kernel) sharedBelow(g *Group, va memdefs.VAddr, lvl memdefs.Level) (memdefs.PPN, bool) {
	switch lvl {
	case memdefs.LvlPUD:
		tbl, ok := g.sharedPMD[regionKey1G(va)]
		return tbl, ok
	case memdefs.LvlPMD:
		return k.sharedTableFor(g, va)
	}
	return 0, false
}

// forkLeaf copies one present leaf of the parent into the child,
// downgrading a writable MAP_PRIVATE leaf to read-only CoW on both sides.
func (k *Kernel) forkLeaf(f *forkWalk, table memdefs.PPN, idx int, va memdefs.VAddr, lvl memdefs.Level, e pgtable.Entry) error {
	vma, ok := f.parent.FindVMA(va)
	if !ok {
		return nil // stale mapping outside any VMA; skip
	}
	if vma.Private && e.Writable() {
		e = e.Without(pgtable.FlagWrite).With(pgtable.FlagCoW)
		k.Mem.WriteEntry(table, idx, uint64(e))
		f.downgraded = true
	}
	k.Mem.Ref(e.PPN())
	if err := f.child.Tables.SetEntry(va, lvl, e); err != nil {
		k.Mem.Unref(e.PPN())
		return err
	}
	f.copied++
	return nil
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

// setORPC sets the ORPC bit in p's pmd_t for gva's 2MB region (Figure
// 5a) when some process of the group holds a private copy there (the
// region's PC bitmask is non-zero), and drops stale PWC copies of that
// entry.
func (k *Kernel) setORPC(p *Process, gva memdefs.VAddr) {
	idx := memdefs.LvlPMD.Index(gva)
	mp, _ := p.Group.maskPageFor(memdefs.PageVPN(gva), false) // lookup-only: cannot fail
	pmdTable := p.Tables.TableAt(gva, memdefs.LvlPMD)
	if mp == nil || mp.MaskAt(idx) == 0 || pmdTable == 0 {
		return
	}
	if e := pgtable.Entry(k.Mem.ReadEntry(pmdTable, idx)); e.PPN() != 0 && !e.ORPC() {
		k.Mem.WriteEntry(pmdTable, idx, uint64(e.With(pgtable.FlagORPC)))
		k.invalidatePWC(memdefs.LvlPMD, entryAddrOf(pmdTable, idx))
	}
}
