package sim

import (
	"fmt"

	"babelfish/internal/kernel"
	"babelfish/internal/memdefs"
	"babelfish/internal/tlb"
)

// AuditTLBs cross-checks every valid entry of every core's TLBs against
// the kernel's live page tables (ROADMAP: "teach the auditor to
// cross-check the hardware tables"). A valid entry must translate its
// page exactly as a walk of a live process's tables would — same frame,
// permissions and CoW state — otherwise an invalidation path (shootdown,
// exit flush, CoW privatization) lost an entry.
//
// The address spaces differ by level: L1 TLBs sit above the ASLR
// transform and hold process VPNs, while the L2 TLB is probed with the
// group's shared VPN, so its entries live in the group address space.
// Call at quiesce points, like Kernel.Audit.
func (m *Machine) AuditTLBs() kernel.AuditReport {
	var r kernel.AuditReport
	for _, c := range m.Cores {
		// The policy tags each level: under BabelFish with ASLR-HW the L1
		// TLBs stay conventional (PCID-tagged); with ASLR-SW the whole
		// hierarchy is CCID-tagged.
		l1, l2 := c.MMU.Config().Policy.TagModes(c.MMU.Config().ASLRHW)
		m.auditGroup(&r, fmt.Sprintf("core%d/L1D", c.ID), c.MMU.L1D, false, l1 == tlb.TagCCID)
		m.auditGroup(&r, fmt.Sprintf("core%d/L1I", c.ID), c.MMU.L1I, false, l1 == tlb.TagCCID)
		m.auditGroup(&r, fmt.Sprintf("core%d/L2", c.ID), c.MMU.L2, true, l2 == tlb.TagCCID)
		// Policy structures (parked PTEs, coalesced runs) cache the same
		// group-address leaf translations as the L2 TLB; every covered
		// page must still be backed by a live PTE, or the invalidation
		// mirror lost an entry. Coalesced runs expand to one view per page.
		if pc := c.MMU.PolicyCore(); pc != nil {
			where := fmt.Sprintf("core%d/policy", c.ID)
			ccid := pc.CCIDTagged()
			pc.ForEachValid(func(sz memdefs.PageSizeClass, e *tlb.Entry) {
				m.Kernel.AuditTLBEntry(&r, tlbEntryView(where, sz, e, true, ccid))
			})
		}
	}
	return r
}

func (m *Machine) auditGroup(r *kernel.AuditReport, where string, g *tlb.Group, groupVA, ccidTagged bool) {
	g.ForEachValid(func(sz memdefs.PageSizeClass, e *tlb.Entry) {
		m.Kernel.AuditTLBEntry(r, tlbEntryView(where, sz, e, groupVA, ccidTagged))
	})
}

// tlbEntryView is the kernel auditor's view of one valid TLB entry.
func tlbEntryView(where string, sz memdefs.PageSizeClass, e *tlb.Entry, groupVA, ccidTagged bool) kernel.TLBEntryView {
	return kernel.TLBEntryView{
		Where:      where,
		Size:       sz,
		VPN:        e.VPN,
		PPN:        e.PPN,
		Perm:       e.Perm,
		CoW:        e.CoW,
		PCID:       e.PCID,
		CCID:       e.CCID,
		Owned:      e.Owned,
		GroupVA:    groupVA,
		CCIDTagged: ccidTagged,
		Global:     e.Global,
	}
}
