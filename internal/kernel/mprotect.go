package kernel

import (
	"fmt"

	"babelfish/internal/memdefs"
	"babelfish/internal/pgtable"
)

// Protect changes a whole VMA's protection (mprotect at VMA granularity).
// Because protections are per-process while BabelFish tables are
// per-group, a process that changes protections must first leave the
// sharing for the affected regions (claim its PC bit and take private
// O-tagged tables) — the same divergence rule as CoW writes and munmap.
// Present entries are rewritten to the new permissions (private writable
// pages that were CoW stay CoW until written) and the process's TLB
// entries are flushed. Returns the kernel cycles consumed.
func (p *Process) Protect(v *VMA, perm memdefs.Perm) (memdefs.Cycles, error) {
	if p.dead {
		return 0, fmt.Errorf("kernel: mprotect on dead process %d", p.PID)
	}
	found := false
	for _, cur := range p.vmas {
		if cur == v {
			found = true
			break
		}
	}
	if !found {
		return 0, fmt.Errorf("kernel: vma %q not mapped in pid %d", v.Name, p.PID)
	}
	if v.Huge {
		return 0, fmt.Errorf("kernel: mprotect on huge VMA %q not supported", v.Name)
	}
	k := p.kern
	// Leave sharing for every affected 2MB region.
	cycles, err := k.leaveSharing(p, v, true)
	if err != nil {
		return cycles, err
	}

	// Rewrite present entries under the (now private) tables.
	newVMA := *v
	newVMA.Perm = perm
	for gva := v.Start; gva < v.End; gva += memdefs.PageSize {
		tbl := p.Tables.TableAt(gva, memdefs.LvlPTE)
		if tbl == 0 {
			continue
		}
		idx := memdefs.LvlPTE.Index(gva)
		e := pgtable.Entry(k.Mem.ReadEntry(tbl, idx))
		if !e.Present() {
			continue
		}
		ne := e
		if perm.CanExec() {
			ne = ne.Without(pgtable.FlagNX)
		} else {
			ne = ne.With(pgtable.FlagNX)
		}
		switch {
		case !perm.CanWrite():
			ne = ne.Without(pgtable.FlagWrite)
		case e.CoW():
			// Stays CoW: writability returns via the CoW break.
		case v.Private && e.Writable():
			// Already a private writable page: keep.
			ne = ne.With(pgtable.FlagWrite)
		case v.Private:
			// Read-only private page gaining write permission: it must
			// break on write, not write the shared frame.
			ne = ne.With(pgtable.FlagCoW)
		default:
			ne = ne.With(pgtable.FlagWrite) // MAP_SHARED
		}
		if ne != e {
			k.Mem.WriteEntry(tbl, idx, uint64(ne))
			cycles += k.Cfg.Costs.ForkPerEntry
		}
	}

	// Replace the VMA (VMA structs are shared across forks: copy).
	for i, cur := range p.vmas {
		if cur == v {
			p.vmas[i] = &newVMA
			break
		}
	}
	return cycles + k.flushProcess(p), nil
}
