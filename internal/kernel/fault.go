package kernel

import (
	"fmt"

	"babelfish/internal/memdefs"
	"babelfish/internal/pgtable"
	"babelfish/internal/physmem"
)

// entryAddrOf is physmem.EntryAddr re-exported locally for readability.
func entryAddrOf(table memdefs.PPN, idx int) memdefs.PAddr {
	return physmem.EntryAddr(table, idx)
}

// Fault classification errors.
var (
	ErrSegFault  = fmt.Errorf("kernel: segmentation fault")
	ErrProtFault = fmt.Errorf("kernel: protection fault")
)

// HandleFault is the page-fault handler invoked by the MMU (it implements
// mmu.OS). va is the faulting process virtual address. It returns the
// kernel cycles consumed.
func (k *Kernel) HandleFault(pid memdefs.PID, va memdefs.VAddr, write bool, kind memdefs.AccessKind) (memdefs.Cycles, error) {
	p, ok := k.procs[pid]
	if !ok {
		return 0, fmt.Errorf("%w: pid %d", ErrNoProcess, pid)
	}
	gva := p.GroupVA(va)
	vma, ok := p.FindVMA(gva)
	if !ok {
		return 0, fmt.Errorf("%w: pid %d va %#x (gva %#x)", ErrSegFault, pid, va, gva)
	}
	if write && !vma.Perm.CanWrite() {
		return 0, fmt.Errorf("%w: write to %s vma %q at %#x", ErrProtFault, vma.Perm, vma.Name, va)
	}
	if kind == memdefs.AccessInstr && !vma.Perm.CanExec() {
		return 0, fmt.Errorf("%w: exec of %s vma %q at %#x", ErrProtFault, vma.Perm, vma.Name, va)
	}

	var cycles memdefs.Cycles
	var err error
	if vma.Huge {
		cycles, err = k.faultHuge(p, vma, gva, va, write)
	} else {
		cycles, err = k.fault4K(p, vma, gva, va, write)
	}
	cycles += k.Cfg.Costs.FaultBase
	k.stats.FaultCycles += cycles
	return cycles, err
}

// fault4K handles a fault on a 4KB-mapped VMA.
func (k *Kernel) fault4K(p *Process, vma *VMA, gva, va memdefs.VAddr, write bool) (memdefs.Cycles, error) {
	if done, c, err := k.faultPresent(p, vma, p.Tables.GetEntry(gva, memdefs.LvlPTE), gva, va, write); done {
		return c, err
	}
	return k.demand4K(p, vma, gva, va, write)
}

// faultPresent resolves a fault on an entry that is already present: a
// write to a CoW entry breaks it; anything else is spurious (a stale TLB
// entry after a shootdown, or another member resolved it in a shared
// table first). done reports that the entry was present.
func (k *Kernel) faultPresent(p *Process, vma *VMA, e pgtable.Entry, gva, va memdefs.VAddr, write bool) (done bool, cycles memdefs.Cycles, err error) {
	if !e.Present() {
		return false, 0, nil
	}
	if write && !e.Writable() && e.CoW() {
		cycles, err = k.cowBreak4K(p, vma, gva, va)
	}
	return true, cycles, err
}

// shareTables reports whether BabelFish table sharing applies to this
// region for this group.
func (k *Kernel) shareTables(g *Group, gva memdefs.VAddr) bool {
	return k.Cfg.Mode == ModeBabelFish && !g.nonShared[regionKey1G(gva)]
}

// sharedTableFor resolves the group's shared PTE table covering gva for
// the configured sharing level: the registered table (PTE-level sharing)
// or the child of the registered shared PMD table (PMD-level sharing).
func (k *Kernel) sharedTableFor(g *Group, gva memdefs.VAddr) (memdefs.PPN, bool) {
	if k.Cfg.ShareLevel == memdefs.LvlPMD {
		pmd, has := g.sharedPMD[regionKey1G(gva)]
		if !has {
			return 0, false
		}
		e := pgtable.Entry(k.Mem.ReadEntry(pmd, memdefs.LvlPMD.Index(gva)))
		if e.PPN() == 0 || e.Huge() {
			return 0, false
		}
		return e.PPN(), true
	}
	tbl, ok := g.sharedPTE[regionKey2M(gva)]
	return tbl, ok
}

// pteTableFor returns the PTE table the process should use for gva,
// linking or creating the group-shared table as needed under BabelFish.
func (k *Kernel) pteTableFor(p *Process, gva memdefs.VAddr) (table memdefs.PPN, isShared bool, cycles memdefs.Cycles, err error) {
	g := p.Group
	if !k.shareTables(g, gva) {
		// Baseline (or reverted region): plain private tables.
		table, err = p.Tables.EnsureTable(gva, memdefs.LvlPTE)
		return table, false, 0, err
	}
	if k.Cfg.ShareLevel == memdefs.LvlPMD {
		return k.pmdTableFor(p, gva)
	}
	key := regionKey2M(gva)
	sharedTbl, hasShared := g.sharedPTE[key]
	table = p.Tables.TableAt(gva, memdefs.LvlPTE)
	switch {
	case table == 0 && hasShared:
		// Link the existing group table: one cheap operation makes every
		// translation already present in it visible to this process.
		if err = p.Tables.LinkTable(gva, memdefs.LvlPMD, sharedTbl); err != nil {
			return 0, false, 0, err
		}
		k.setORPC(p, gva)
		k.stats.LinkFaults++
		return sharedTbl, true, k.Cfg.Costs.LinkTables, nil
	case table == 0:
		// First toucher creates and registers the group table.
		table, err = p.Tables.EnsureTable(gva, memdefs.LvlPTE)
		if err != nil {
			return 0, false, 0, err
		}
		k.Mem.Ref(table) // the group registry holds its own reference
		g.sharedPTE[key] = table
		k.setORPC(p, gva)
		return table, true, 0, nil
	case hasShared && table == sharedTbl:
		return table, true, 0, nil
	default:
		// The process already diverged to a private table here.
		return table, false, 0, nil
	}
}

// demand4K populates a non-present 4KB translation.
func (k *Kernel) demand4K(p *Process, vma *VMA, gva, va memdefs.VAddr, write bool) (memdefs.Cycles, error) {
	table, isShared, cycles, err := k.pteTableFor(p, gva)
	if err != nil {
		return cycles, err
	}
	idx := memdefs.LvlPTE.Index(gva)
	// The link (or a sibling) may already provide the translation.
	if done, c, err := k.faultPresent(p, vma, pgtable.Entry(k.Mem.ReadEntry(table, idx)), gva, va, write); done {
		return cycles + c, err
	}

	if vma.Kind == VMAAnon && !write {
		// Read-before-write: map the global zero page copy-on-write.
		k.Mem.Ref(k.zeroPPN)
		flags := pgtable.FlagPresent | pgtable.FlagUser | pgtable.FlagAccess | pgtable.FlagCoW | k.ownedFlagIf(!isShared)
		if !vma.Perm.CanExec() {
			flags |= pgtable.FlagNX
		}
		k.Mem.WriteEntry(table, idx, uint64(pgtable.MakeEntry(k.zeroPPN, flags)))
		k.stats.MinorFaults++
		k.countInstall(isShared)
		return cycles + k.Cfg.Costs.MinorInstall, nil
	}

	var frame memdefs.PPN
	if vma.Kind == VMAFile {
		fileIdx := vma.FileOff + int((gva-vma.Start)/memdefs.PageSize)
		var major bool
		frame, major, err = vma.File.Frame(fileIdx)
		if err != nil {
			return cycles, err
		}
		if major {
			cycles += k.Cfg.Costs.MajorDisk
			k.stats.MajorFaults++
		} else {
			k.stats.MinorFaults++
		}
	}

	// A private write with siblings present is a private page: it takes
	// the owned path, and the private table copy may already hold the
	// entry.
	privWrite := vma.Private && vma.Perm.CanWrite()
	soleMember := p.Group.MemberCount() == 1
	if write && privWrite && !soleMember && isShared {
		c, tbl, err := k.ensureOwnedTable(p, gva)
		cycles += c
		if err != nil {
			return cycles, err
		}
		table, isShared = tbl, false
		if done, c, err := k.faultPresent(p, vma, pgtable.Entry(k.Mem.ReadEntry(table, idx)), gva, va, write); done {
			return cycles + c, err
		}
	}

	if vma.Kind == VMAAnon || (write && privWrite && !soleMember) {
		// A fresh private frame: zero-filled for an anonymous write, a
		// copy of the page-cache page for a MAP_PRIVATE write with
		// siblings.
		if frame, err = k.allocFrame(physmem.FrameData); err != nil {
			return cycles, err
		}
		flags := pgtable.FlagPresent | pgtable.FlagUser | pgtable.FlagAccess | pgtable.FlagDirty | pgtable.FlagWrite | k.ownedFlagIf(!isShared)
		if !vma.Perm.CanExec() {
			flags |= pgtable.FlagNX
		}
		k.Mem.WriteEntry(table, idx, uint64(pgtable.MakeEntry(frame, flags)))
		k.countInstall(isShared)
		if vma.Kind == VMAAnon {
			k.stats.ZeroFillFaults++
			return cycles + k.Cfg.Costs.MinorInstall + k.Cfg.Costs.ZeroFill, nil
		}
		return cycles + k.Cfg.Costs.MinorInstall + k.Cfg.Costs.CoWCopyPage, nil
	}

	// Clean install. MAP_PRIVATE writable mappings are installed CoW
	// read-only (a sole-member group installs writable; the fork sweep
	// downgrades those entries).
	flags := pgtable.FlagPresent | pgtable.FlagUser | pgtable.FlagAccess
	if !vma.Perm.CanExec() {
		flags |= pgtable.FlagNX
	}
	switch {
	case privWrite && soleMember:
		flags |= pgtable.FlagWrite
		if write {
			flags |= pgtable.FlagDirty
		}
		// A sole-member private write still must not dirty the page
		// cache: give the writer its own copy.
		if write {
			copyFrame, err := k.allocFrame(physmem.FrameData)
			if err != nil {
				return cycles, err
			}
			frame = copyFrame
			cycles += k.Cfg.Costs.CoWCopyPage
		} else {
			flags = flags.Without(pgtable.FlagWrite).With(pgtable.FlagCoW)
		}
	case privWrite:
		flags |= pgtable.FlagCoW // read-only CoW
	case vma.Perm.CanWrite():
		// MAP_SHARED writable: writes go to the page-cache frame.
		flags |= pgtable.FlagWrite
		if write {
			flags |= pgtable.FlagDirty
		}
	}
	flags |= k.ownedFlagIf(!isShared)
	// The entry holds one reference on its frame. Freshly-allocated copy
	// frames (sole-member private write) already carry their reference;
	// page-cache frames need one added.
	frameIsFreshCopy := flags.Writable() && vma.Private
	if !frameIsFreshCopy {
		k.Mem.Ref(frame)
	}
	k.Mem.WriteEntry(table, idx, uint64(pgtable.MakeEntry(frame, flags)))
	k.countInstall(isShared)
	return cycles + k.Cfg.Costs.MinorInstall, nil
}

func (k *Kernel) ownedFlag() pgtable.Entry {
	if k.Cfg.Mode == ModeBabelFish {
		return pgtable.FlagOwned
	}
	return 0
}

func (k *Kernel) ownedFlagIf(cond bool) pgtable.Entry {
	if cond {
		return k.ownedFlag()
	}
	return 0
}

func (k *Kernel) countInstall(shared bool) {
	if shared {
		k.stats.SharedInstalls++
	} else {
		k.stats.PrivateInstalls++
	}
}

// cowBreak4K resolves a write to a CoW page.
func (k *Kernel) cowBreak4K(p *Process, vma *VMA, gva, va memdefs.VAddr) (memdefs.Cycles, error) {
	g := p.Group
	var cycles memdefs.Cycles
	table := p.Tables.TableAt(gva, memdefs.LvlPTE)
	sharedTbl, hasShared := k.sharedTableFor(g, gva)

	if k.shareTables(g, gva) && hasShared && table == sharedTbl && g.MemberCount() > 1 {
		c, tbl2, err := k.ensureOwnedTable(p, gva)
		cycles += c
		if err != nil {
			return cycles, err
		}
		table = tbl2
	}
	if table == 0 {
		// Raced with a revert; retry via demand path.
		return cycles, nil
	}
	idx := memdefs.LvlPTE.Index(gva)
	e := pgtable.Entry(k.Mem.ReadEntry(table, idx))
	if !e.Present() {
		// Entry disappeared (revert); the retried walk will demand-fault.
		return cycles, nil
	}
	if e.Writable() {
		return cycles, nil // sibling already resolved
	}
	if !e.CoW() {
		return cycles, fmt.Errorf("%w: CoW break on non-CoW entry at %#x", ErrProtFault, va)
	}

	old := e.PPN()
	keepO := e.Owned()
	newFlags := pgtable.FlagPresent | pgtable.FlagUser | pgtable.FlagWrite | pgtable.FlagAccess | pgtable.FlagDirty
	if !vma.Perm.CanExec() {
		newFlags |= pgtable.FlagNX
	}
	if keepO {
		newFlags |= pgtable.FlagOwned
	} else if k.Cfg.Mode == ModeBabelFish && table != sharedTbl {
		newFlags |= k.ownedFlag()
	}

	if old != k.zeroPPN && k.Mem.Refs(old) == 1 && !k.framePageCached(vma, gva, old) {
		// Sole owner: upgrade in place.
		k.Mem.WriteEntry(table, idx, uint64(pgtable.MakeEntry(old, newFlags)))
	} else {
		frame, err := k.allocFrame(physmem.FrameData)
		if err != nil {
			return cycles, err
		}
		if old == k.zeroPPN {
			cycles += k.Cfg.Costs.ZeroFill
		} else {
			cycles += k.Cfg.Costs.CoWCopyPage
		}
		k.Mem.WriteEntry(table, idx, uint64(pgtable.MakeEntry(frame, newFlags)))
		k.Mem.Unref(old)
	}
	k.stats.CoWFaults++

	// TLB consistency (Section III-A): invalidate the shared (O==0)
	// entry for this VPN everywhere; private sibling translations stay.
	// The writer's own stale entries must go too — they live under the
	// process VA in the L1s and under the group VA in the L2s (the two
	// differ under ASLR-HW).
	if k.Cfg.Mode == ModeBabelFish {
		cycles += k.shootdownSharedVA(gva, g.CCID)
		cycles += k.shootdownVA(va)
		if gva != va {
			k.shootdownFree(gva)
		}
	} else {
		cycles += k.shootdownVA(va)
	}
	return cycles, nil
}

// shootdownFree invalidates an address on all cores without charging an
// extra IPI round (it piggybacks on a round already paid for).
func (k *Kernel) shootdownFree(va memdefs.VAddr) {
	if k.Hooks != nil {
		k.Hooks.ShootdownVA(va)
	}
}

// framePageCached reports whether the frame is the file's page-cache copy
// (which a CoW breaker must never write in place).
func (k *Kernel) framePageCached(vma *VMA, gva memdefs.VAddr, frame memdefs.PPN) bool {
	if vma.Kind != VMAFile {
		return false
	}
	idx := vma.FileOff + int((gva-vma.Start)/memdefs.PageSize)
	return idx >= 0 && idx < vma.File.Pages && vma.File.frames[idx] == frame
}

// faultHuge handles faults on 2MB-mapped VMAs (anonymous THP regions, and
// read-only huge file mappings shared at the PMD level).
func (k *Kernel) faultHuge(p *Process, vma *VMA, gva, va memdefs.VAddr, write bool) (memdefs.Cycles, error) {
	hgva := gva &^ memdefs.VAddr(memdefs.HugePageSize2M-1)
	e := p.Tables.GetEntry(hgva, memdefs.LvlPMD)
	var cycles memdefs.Cycles

	if e.Present() && e.Huge() {
		if write && !e.Writable() && e.CoW() {
			return k.cowBreakHuge(p, vma, hgva, va)
		}
		return 0, nil // spurious
	}

	if vma.Kind == VMAFile && !vma.Private {
		// Read-only (or shared) huge file mapping: BabelFish merges PMD
		// tables (Section IV-C).
		blockIdx := vma.FileOff/memdefs.TableSize + int((hgva-vma.Start)/memdefs.HugePageSize2M)
		base, major, err := vma.File.HugeFrame(blockIdx)
		if err != nil {
			return cycles, err
		}
		if major {
			cycles += k.Cfg.Costs.MajorDisk * 8 // 2MB device read
			k.stats.MajorFaults++
		} else {
			k.stats.MinorFaults++
		}
		flags := pgtable.FlagPresent | pgtable.FlagPS | pgtable.FlagUser | pgtable.FlagAccess
		if vma.Perm.CanWrite() {
			flags |= pgtable.FlagWrite
			if write {
				flags |= pgtable.FlagDirty
			}
		}
		if !vma.Perm.CanExec() {
			flags |= pgtable.FlagNX
		}
		if k.shareTables(p.Group, hgva) {
			cur, c, err := k.pmdFor(p, hgva)
			cycles += c
			if err != nil {
				return cycles, err
			}
			idx := memdefs.LvlPMD.Index(hgva)
			if pgtable.Entry(k.Mem.ReadEntry(cur, idx)).Present() {
				return cycles, nil
			}
			k.Mem.Ref(base)
			k.Mem.WriteEntry(cur, idx, uint64(pgtable.MakeEntry(base, flags)))
			k.stats.SharedInstalls++
			return cycles + k.Cfg.Costs.MinorInstall, nil
		}
		k.Mem.Ref(base)
		if err := p.Tables.SetEntry(hgva, memdefs.LvlPMD, pgtable.MakeEntry(base, flags|k.ownedFlag())); err != nil {
			k.Mem.Unref(base) // drop the entry's reference, or a failed install leaks it
			return cycles, err
		}
		k.stats.PrivateInstalls++
		return cycles + k.Cfg.Costs.MinorInstall, nil
	}

	// Anonymous THP: allocate a 2MB block, always private (Owned under
	// BabelFish) — these are the paper's unshareable THP entries (Fig. 9).
	if shared, has := p.Group.sharedPMD[regionKey1G(hgva)]; has &&
		p.Tables.TableAt(hgva, memdefs.LvlPMD) == shared {
		return cycles, fmt.Errorf("kernel: anonymous THP region %q overlaps a PMD-shared 1GB region; place huge file mappings and THP regions in different segments", vma.Name)
	}
	base, err := k.allocBlock(physmem.FrameData)
	if err != nil {
		return cycles, err
	}
	flags := pgtable.FlagPresent | pgtable.FlagPS | pgtable.FlagUser | pgtable.FlagAccess | pgtable.FlagWrite | k.ownedFlag()
	if write {
		flags |= pgtable.FlagDirty
	}
	if !vma.Perm.CanExec() {
		flags |= pgtable.FlagNX
	}
	if err := p.Tables.SetEntry(hgva, memdefs.LvlPMD, pgtable.MakeEntry(base, flags)); err != nil {
		k.Mem.Unref(base) // the fresh block is unreachable if the install failed
		return cycles, err
	}
	k.stats.ZeroFillFaults++
	k.stats.PrivateInstalls++
	return cycles + k.Cfg.Costs.MinorInstall + k.Cfg.Costs.ZeroFill*64, nil
}

// cowBreakHuge resolves a write to a CoW 2MB page (fork-inherited THP).
func (k *Kernel) cowBreakHuge(p *Process, vma *VMA, hgva, va memdefs.VAddr) (memdefs.Cycles, error) {
	e := p.Tables.GetEntry(hgva, memdefs.LvlPMD)
	if !e.Present() || e.Writable() {
		return 0, nil
	}
	var cycles memdefs.Cycles
	old := e.PPN()
	flags := pgtable.FlagPresent | pgtable.FlagPS | pgtable.FlagUser | pgtable.FlagAccess | pgtable.FlagDirty | pgtable.FlagWrite | (e & pgtable.FlagOwned) | k.ownedFlag()
	if !vma.Perm.CanExec() {
		flags |= pgtable.FlagNX
	}
	if k.Mem.Refs(old) == 1 {
		if err := p.Tables.SetEntry(hgva, memdefs.LvlPMD, pgtable.MakeEntry(old, flags)); err != nil {
			return cycles, err
		}
	} else {
		base, err := k.allocBlock(physmem.FrameData)
		if err != nil {
			return cycles, err
		}
		cycles += k.Cfg.Costs.CoWCopyPage * 128 // streamed 2MB copy
		if err := p.Tables.SetEntry(hgva, memdefs.LvlPMD, pgtable.MakeEntry(base, flags)); err != nil {
			k.Mem.Unref(base) // the copy is unreachable if the install failed
			return cycles, err
		}
		k.Mem.Unref(old)
	}
	k.stats.CoWFaults++
	cycles += k.shootdownVA(va)
	if hgva != va&^memdefs.VAddr(memdefs.HugePageSize2M-1) {
		k.shootdownFree(hgva)
	}
	return cycles, nil
}
