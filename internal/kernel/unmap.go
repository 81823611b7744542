package kernel

import (
	"fmt"

	"babelfish/internal/memdefs"
	"babelfish/internal/pgtable"
)

// Unmap removes an entire VMA from the process (whole-mapping munmap, the
// granularity container runtimes use for unmapping SSTs, arenas and
// scratch regions). The process's translations under the VMA are torn
// down: private tables release their data-page references; links to
// group-shared tables are dropped (the shared table itself survives while
// the registry or other members reference it). One TLB flush round
// revokes the process's stale entries. Returns the kernel cycles spent.
func (p *Process) Unmap(v *VMA) (memdefs.Cycles, error) {
	if p.dead {
		return 0, fmt.Errorf("kernel: unmap on dead process %d", p.PID)
	}
	idx := -1
	for i, cur := range p.vmas {
		if cur == v {
			idx = i
			break
		}
	}
	if idx < 0 {
		return 0, fmt.Errorf("kernel: vma %q not mapped in pid %d", v.Name, p.PID)
	}
	k := p.kern
	var cycles memdefs.Cycles

	release := func(e pgtable.Entry) {
		if e.Present() && e.PPN() != 0 {
			k.Mem.Unref(e.PPN())
		}
	}

	if !v.Huge {
		// Shared TLB entries (which other members keep using) must stop
		// matching this process the moment its mapping is gone.
		c, err := k.leaveSharing(p, v, false)
		cycles += c
		if err != nil {
			return cycles, err
		}
		// Under PMD-level sharing a VMA may cover only part of the 1GB
		// region a shared PMD table maps; privatize the PMD first so
		// unlinking this VMA's PTE tables cannot disturb other members.
		if k.Cfg.Mode == ModeBabelFish && k.Cfg.ShareLevel == memdefs.LvlPMD {
			for gva := v.Start; gva < v.End; gva += memdefs.HugePageSize2M {
				_, c, err := k.privatizePMD(p, gva)
				cycles += c
				if err != nil {
					return cycles, err
				}
			}
		}
	}

	if v.Huge {
		// Huge mappings: clear each PMD-level leaf; unlink shared PMD
		// tables where the whole 1GB region belongs to this VMA.
		for gva := v.Start &^ memdefs.VAddr(memdefs.HugePageSize2M-1); gva < v.End; gva += memdefs.HugePageSize2M {
			pmdTbl := p.Tables.TableAt(gva, memdefs.LvlPMD)
			if pmdTbl == 0 {
				continue
			}
			if shared, ok := p.Group.sharedPMD[regionKey1G(gva)]; ok && shared == pmdTbl {
				// Drop the link; later iterations in the same 1GB region
				// see no table and skip.
				if _, err := p.Tables.UnlinkTable(gva, memdefs.LvlPUD, release); err != nil {
					return cycles, err
				}
				cycles += k.Cfg.Costs.LinkTables
				// Last member gone: only the registry holds the table.
				if k.Mem.Refs(shared) == 1 {
					k.releaseSharedTableAtLevel(shared, memdefs.LvlPMD)
					delete(p.Group.sharedPMD, regionKey1G(gva))
				}
				continue
			}
			i := memdefs.LvlPMD.Index(gva)
			e := pgtable.Entry(k.Mem.ReadEntry(pmdTbl, i))
			if e.Present() && e.Huge() {
				release(e)
				k.Mem.WriteEntry(pmdTbl, i, 0)
				cycles += k.Cfg.Costs.MinorInstall / 4
			}
		}
	} else {
		// 4KB mappings: VMAs are 2MB-region aligned by construction, so
		// the VMA covers whole PTE tables.
		for gva := v.Start &^ memdefs.VAddr(memdefs.HugePageSize2M-1); gva < v.End; gva += memdefs.HugePageSize2M {
			tbl := p.Tables.TableAt(gva, memdefs.LvlPTE)
			if tbl == 0 {
				continue
			}
			if _, err := p.Tables.UnlinkTable(gva, memdefs.LvlPMD, release); err != nil {
				return cycles, err
			}
			cycles += k.Cfg.Costs.LinkTables
			// If this was the group's shared table and no member links it
			// anymore, retire it from the registry so later containers
			// re-fault the region instead of seeing stale mappings.
			if shared, ok := p.Group.sharedPTE[regionKey2M(gva)]; ok && shared == tbl && k.Mem.Refs(tbl) == 1 {
				k.releaseSharedTableAtLevel(tbl, memdefs.LvlPTE)
				delete(p.Group.sharedPTE, regionKey2M(gva))
			}
		}
	}

	p.vmas = append(p.vmas[:idx], p.vmas[idx+1:]...)
	return cycles + k.flushProcess(p), nil
}

// UnmapRegionName finds the process's VMA by name and unmaps it.
func (p *Process) UnmapRegionName(name string) (memdefs.Cycles, error) {
	for _, v := range p.vmas {
		if v.Name == name {
			return p.Unmap(v)
		}
	}
	return 0, fmt.Errorf("kernel: no vma named %q in pid %d", name, p.PID)
}
