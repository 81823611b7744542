package kernel

import (
	"babelfish/internal/memdefs"
	"babelfish/internal/pgtable"
	"babelfish/internal/physmem"
)

// Leaving a group's shared translations (Section III-A, Appendix,
// Section VII-D). A process leaves sharing for a 2MB region in one way:
// assignPCBit claims its PrivateCopy bit in the region's MaskPage and sets
// ORPC in every sharer's pmd_t, or — when the MaskPage is full, or under
// Config.NoPCBitmask — reverts the whole 1GB region to private O-tagged
// tables. Its callers:
//
//   - a CoW write (demand4K, cowBreak4K) goes through ensureOwnedTable,
//     which then takes a private O-tagged copy of the shared PTE table;
//   - munmap and mprotect go through leaveSharing, which drops the stale
//     shared TLB entries and then leaves each region: through
//     ensureOwnedTable where mprotect must rewrite a linked table, and
//     through assignPCBit alone otherwise.

// ensureOwnedTable gives the process a private PTE table for gva's 2MB
// region — the paper's CoW event: leave sharing through assignPCBit, copy
// the 512 pte_t with the O bit set, and rewire this process's pmd_t to the
// private copy. Under PMD-level sharing the process first takes its own
// copy of the PMD table. A region assignPCBit reverted keeps the private
// table the revert gave the process.
func (k *Kernel) ensureOwnedTable(p *Process, gva memdefs.VAddr) (memdefs.Cycles, memdefs.PPN, error) {
	shared, hasShared := k.sharedTableFor(p.Group, gva)
	if cur := p.Tables.TableAt(gva, memdefs.LvlPTE); cur != 0 && (!hasShared || cur != shared) {
		return 0, cur, nil // already private
	}
	reverted, cycles, err := k.assignPCBit(p, gva)
	if err != nil {
		return cycles, 0, err
	}
	if reverted {
		tbl, err := p.Tables.EnsureTable(gva, memdefs.LvlPTE)
		return cycles, tbl, err
	}

	idx := memdefs.LvlPMD.Index(gva)
	var pmd memdefs.PPN
	if k.Cfg.ShareLevel == memdefs.LvlPMD {
		var c memdefs.Cycles
		pmd, c, err = k.privatizePMD(p, gva)
		cycles += c
		if err != nil {
			return cycles, 0, err
		}
		e := pgtable.Entry(k.Mem.ReadEntry(pmd, idx))
		shared, hasShared = e.PPN(), e.PPN() != 0 && !e.Huge()
	}
	newTbl, err := k.allocFrame(physmem.FrameTable)
	if err != nil {
		return cycles, 0, err
	}
	if hasShared {
		cycles += k.copyOwned(newTbl, shared)
	}
	if pmd == 0 {
		if pmd, err = p.Tables.EnsureTable(gva, memdefs.LvlPMD); err != nil {
			// Drop the private copy and the data references it took, or an
			// OOM mid-CoW leaks the whole table.
			k.releaseSharedTableAtLevel(newTbl, memdefs.LvlPTE)
			return cycles, 0, err
		}
	}
	old := pgtable.Entry(k.Mem.ReadEntry(pmd, idx))
	k.Mem.WriteEntry(pmd, idx, uint64(pgtable.MakeEntry(newTbl, pgtable.FlagPresent|pgtable.FlagWrite|pgtable.FlagUser|pgtable.FlagORPC)))
	k.invalidatePWC(memdefs.LvlPMD, entryAddrOf(pmd, idx))
	if hasShared && old.PPN() == shared {
		k.Mem.Unref(shared) // drop this process's reference on the shared table
	}
	return cycles, newTbl, nil
}

// assignPCBit claims the process's PrivateCopy bit for gva's 2MB region
// and propagates ORPC to the sharers' pmd_t. reverted reports that the
// region was reverted to private translations instead: always under
// Config.NoPCBitmask (Section VII-D: the first writer ends sharing for the
// whole PMD table set, and no MaskPage exists), and when the MaskPage is
// full.
func (k *Kernel) assignPCBit(p *Process, gva memdefs.VAddr) (reverted bool, cycles memdefs.Cycles, err error) {
	g := p.Group
	if k.Cfg.NoPCBitmask {
		c, err := k.revertRegion(g, gva)
		return true, c, err
	}
	mp, err := g.maskPageFor(memdefs.PageVPN(gva), true)
	if err != nil {
		return false, 0, err
	}
	bit, ok := mp.bitOf(p.PID)
	if !ok {
		if len(mp.pids) >= memdefs.PCBitmaskBits {
			c, err := k.revertRegion(g, gva)
			return true, c, err
		}
		mp.pids = append(mp.pids, p.PID)
		bit, _ = mp.bitOf(p.PID)
	}
	idx := memdefs.LvlPMD.Index(gva)
	mp.masks[idx] |= 1 << uint(bit)

	if k.Cfg.ShareLevel == memdefs.LvlPMD {
		// ORPC lives in the shared pmd_t, visible to every sharer.
		if sharedPMD, has := g.sharedPMD[regionKey1G(gva)]; has {
			e := pgtable.Entry(k.Mem.ReadEntry(sharedPMD, idx))
			if e.PPN() != 0 && !e.ORPC() {
				k.Mem.WriteEntry(sharedPMD, idx, uint64(e.With(pgtable.FlagORPC)))
				k.invalidatePWC(memdefs.LvlPMD, entryAddrOf(sharedPMD, idx))
			}
		}
		return false, 0, nil
	}
	// Every member's pmd_t that points at the shared table, in PID order
	// so any table growth is deterministic.
	if sharedTbl, has := k.sharedTableFor(g, gva); has {
		for _, pid := range sortedPIDs(g.members) {
			if m := g.members[pid]; m.Tables.TableAt(gva, memdefs.LvlPTE) == sharedTbl {
				k.setPMDORPC(m, gva, true)
			}
		}
	}
	return false, 0, nil
}

// leaveSharing takes the process out of its group's shared translations
// for every 2MB region the VMA covers. With privatize set, a region the
// process links also gets its private O-tagged table (mprotect rewrites
// the entries); otherwise the process only claims its PC bit (munmap
// drops the link next). Shared TLB entries cached before the bit existed
// carry a stale PC bitmask — the paper's CoW-invalidation argument — so
// they are dropped first, and sharers refill them with ORPC set. Leaving
// one region can revert the whole 1GB region around it, after which its
// other regions no longer look shared: hence the two passes.
func (k *Kernel) leaveSharing(p *Process, v *VMA, privatize bool) (memdefs.Cycles, error) {
	var cycles memdefs.Cycles
	start := v.Start &^ memdefs.VAddr(memdefs.HugePageSize2M-1)
	for gva := start; gva < v.End; gva += memdefs.HugePageSize2M {
		if _, has := k.sharedTableFor(p.Group, gva); !has || !k.shareTables(p.Group, gva) {
			continue
		}
		lo, hi := max(gva, v.Start), min(gva+memdefs.HugePageSize2M, v.End)
		for pg := lo; pg < hi && k.Hooks != nil; pg += memdefs.PageSize {
			k.Hooks.ShootdownSharedVA(pg, p.Group.CCID)
		}
		cycles += memdefs.Cycles(k.numRemoteCores()) * k.Cfg.Costs.ShootdownPer
	}
	for gva := start; gva < v.End; gva += memdefs.HugePageSize2M {
		shared, has := k.sharedTableFor(p.Group, gva)
		if !has || !k.shareTables(p.Group, gva) {
			continue
		}
		var c memdefs.Cycles
		var err error
		if privatize && p.Tables.TableAt(gva, memdefs.LvlPTE) == shared {
			c, _, err = k.ensureOwnedTable(p, gva)
		} else {
			_, c, err = k.assignPCBit(p, gva)
		}
		cycles += c
		if err != nil {
			return cycles, err
		}
	}
	return cycles, nil
}

// copyOwned fills the fresh table dst with O-tagged copies of src's
// entries, taking a reference on every present frame, and returns the
// cost of copying one page of pte_t.
func (k *Kernel) copyOwned(dst, src memdefs.PPN) memdefs.Cycles {
	s, d := k.Mem.Table(src), k.Mem.Table(dst)
	for i, v := range s {
		e := pgtable.Entry(v)
		if e.PPN() == 0 && !e.Present() {
			continue
		}
		d[i] = uint64(e.With(pgtable.FlagOwned))
		if e.Present() && e.PPN() != 0 {
			k.Mem.Ref(e.PPN())
		}
	}
	k.stats.PTEPageCopies++
	return k.Cfg.Costs.PTEPageCopy
}

// revertRegion ends sharing for gva's whole 1GB region (MaskPage overflow
// — more than 32 CoW writers, Appendix — or any exit under NoPCBitmask):
// every member using shared translations in the region receives private
// O-tagged copies, the shared tables are unregistered, and the region is
// marked non-shared.
func (k *Kernel) revertRegion(g *Group, gva memdefs.VAddr) (memdefs.Cycles, error) {
	key1g := regionKey1G(gva)
	if g.nonShared[key1g] {
		return 0, nil
	}
	g.nonShared[key1g] = true
	k.stats.MaskOverflows++
	if k.Cfg.ShareLevel == memdefs.LvlPMD {
		return k.revertRegionPMD(g, gva)
	}

	// Sorted iteration on both maps: this path allocates private table
	// copies per (region, member), and allocation order must not depend
	// on map order or the machine's physical layout diverges run to run.
	var cycles memdefs.Cycles
	for _, key2m := range sortedKeys(g.sharedPTE) {
		sharedTbl := g.sharedPTE[key2m]
		if key2m>>memdefs.EntryBits != key1g {
			continue
		}
		rgva := memdefs.VAddr(key2m) << memdefs.HugePageShift2M
		for _, pid := range sortedPIDs(g.members) {
			m := g.members[pid]
			if m.Tables.TableAt(rgva, memdefs.LvlPTE) != sharedTbl {
				continue
			}
			newTbl, err := k.allocFrame(physmem.FrameTable)
			if err != nil {
				return cycles, err
			}
			cycles += k.copyOwned(newTbl, sharedTbl)
			pmdTable, err := m.Tables.EnsureTable(rgva, memdefs.LvlPMD)
			if err != nil {
				k.releaseSharedTableAtLevel(newTbl, memdefs.LvlPTE)
				return cycles, err
			}
			pmdIdx := memdefs.LvlPMD.Index(rgva)
			k.Mem.WriteEntry(pmdTable, pmdIdx, uint64(pgtable.MakeEntry(newTbl, pgtable.FlagPresent|pgtable.FlagWrite|pgtable.FlagUser)))
			k.invalidatePWC(memdefs.LvlPMD, entryAddrOf(pmdTable, pmdIdx))
			k.Mem.Unref(sharedTbl)
			if k.Hooks != nil {
				k.Hooks.FlushProcess(m.PCID)
			}
		}
		// Drop the registry reference and release any remaining data refs
		// held by the shared table.
		k.releaseSharedTableAtLevel(sharedTbl, memdefs.LvlPTE)
		delete(g.sharedPTE, key2m)
	}
	return cycles, nil
}

// revertRegionPMD is revertRegion under PMD-level sharing: every linked
// member privatizes the PMD table and receives O-tagged private copies of
// its populated PTE tables.
func (k *Kernel) revertRegionPMD(g *Group, gva memdefs.VAddr) (memdefs.Cycles, error) {
	key1g := regionKey1G(gva)
	sharedPMD, has := g.sharedPMD[key1g]
	if !has {
		return 0, nil
	}
	// PID order: privatization allocates tables per member, and the
	// allocation sequence must be independent of map iteration order.
	var cycles memdefs.Cycles
	for _, pid := range sortedPIDs(g.members) {
		m := g.members[pid]
		if m.Tables.TableAt(gva, memdefs.LvlPMD) != sharedPMD {
			continue
		}
		pmd, c, err := k.privatizePMD(m, gva)
		cycles += c
		if err != nil {
			return cycles, err
		}
		entries := k.Mem.Table(pmd)
		for i, v := range entries {
			e := pgtable.Entry(v)
			if e.PPN() == 0 || e.Huge() {
				continue
			}
			newTbl, err := k.allocFrame(physmem.FrameTable)
			if err != nil {
				return cycles, err
			}
			cycles += k.copyOwned(newTbl, e.PPN())
			entries[i] = uint64(pgtable.MakeEntry(newTbl, pgtable.FlagPresent|pgtable.FlagWrite|pgtable.FlagUser))
			k.invalidatePWC(memdefs.LvlPMD, entryAddrOf(pmd, i))
			k.releaseSharedTableAtLevel(e.PPN(), memdefs.LvlPTE)
		}
		if k.Hooks != nil {
			k.Hooks.FlushProcess(m.PCID)
		}
	}
	k.releaseSharedTableAtLevel(sharedPMD, memdefs.LvlPMD)
	delete(g.sharedPMD, key1g)
	return cycles, nil
}
