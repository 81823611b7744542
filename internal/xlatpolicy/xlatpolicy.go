// Package xlatpolicy is the translation-policy seam: it decouples the
// simulated machine from the concrete translation architecture. A Policy
// describes how TLB entries are tagged and matched (conventional PCID
// tagging vs BabelFish's CCID + O-PC rules), whether page-walk fills
// populate the O-PC field, and — through an optional per-core Core —
// any extra lookup targets consulted between the L2 TLB miss and the
// hardware page walk (Victima's cache-resident PTEs, coalesced
// VPN→PPN run entries).
//
// Architectures are registered by name in a process-wide registry; the
// CLIs' -arch flags, sim.Params construction and telemetry arch labels
// all resolve through it, so adding a policy is one Register call away
// from every tool.
//
// Invalidation contract: a Core's structures cache leaf translations in
// the same (group) address space as the L2 TLB, so the MMU mirrors every
// L2-TLB invalidation into the Core with identical arguments —
// InvalidateVA on full per-page shootdowns, InvalidateSharedVA on CoW
// breaks, FlushPCID on fork/exit/CCID-recycle, FlushAll on full flushes.
// Any kernel path that keeps the L2 TLB coherent therefore keeps policy
// structures coherent too; the TLB/PTE cross-check audit walks Core
// entries (ForEachValid) to enforce it.
package xlatpolicy

import (
	"fmt"
	"sort"

	"babelfish/internal/memdefs"
	"babelfish/internal/memsys"
	"babelfish/internal/physmem"
	"babelfish/internal/tlb"
)

// Policy is one translation architecture's behaviour at the seams the
// MMU consults. Implementations must be stateless and reusable across
// machines; per-core mutable state lives in the Core built by NewCore.
type Policy interface {
	// Name is the registry key, the CLIs' -arch value and the telemetry
	// arch label.
	Name() string

	// TagModes returns the entry tagging/match rules for the L1 and L2
	// TLB groups under the given ASLR configuration (TagPCID =
	// conventional VPN+PCID match, TagCCID = BabelFish's VPN+CCID match
	// plus the Figure-8 O-PC checks).
	TagModes(aslrHW bool) (l1, l2 tlb.Mode)

	// OPC reports whether page-walk fills populate the O-PC field
	// (Owned/ORPC/PCMask) and the ASLR-HW transform is charged — the
	// BabelFish insert behaviour.
	OPC() bool

	// SharedKernel reports whether the kernel runs in BabelFish
	// page-table-sharing mode (shared PTE tables, CCID groups, MaskPages)
	// for this architecture.
	SharedKernel() bool

	// NewCore builds the policy's per-core extension state, or nil when
	// the policy adds no extra lookup targets (baseline, babelfish).
	NewCore(c CoreConfig) Core
}

// CoreConfig carries what a per-core policy structure may need.
type CoreConfig struct {
	CoreID int
	// Mem gives read access to the live page tables (the coalescing
	// policy inspects the leaf PTE's neighbours on a walk fill).
	Mem *physmem.Memory
}

// MissProbe describes one translation that missed the whole TLB group
// path (L1 and L2), just before the hardware page walk. It is passed by
// value (see Core).
type MissProbe struct {
	// VA is the process virtual address; SVA the group (shared) virtual
	// address the L2 TLB was probed with — identical unless the ASLR-HW
	// transform is active.
	VA, SVA memdefs.VAddr
	// Q carries the probe tags (PCID/CCID/PID, write/exec, PCBit). Its
	// VPN field is unspecified; implementations derive the VPN they need
	// from SVA.
	Q tlb.Lookup
}

// MissResult is a successful policy hit: a 4KB leaf translation for the
// probed address, ready for promotion into the L2 and L1 TLBs.
type MissResult struct {
	// Entry is tagged with SVA's 4KB VPN (the L2 TLB's address space).
	Entry tlb.Entry
	// Lat is the probe latency to charge (hit or miss, the structure was
	// consulted; the MMU charges it on the hit path — misses charge via
	// MissPenalty so a present-but-useless structure still costs time).
	Lat memdefs.Cycles
}

// WalkFill describes a completed hardware page walk whose leaf was just
// installed into the TLBs. It is passed by value (see Core).
type WalkFill struct {
	VA, SVA memdefs.VAddr
	Size    memdefs.PageSizeClass
	// Entry is the L2 TLB entry the walk built (group address space).
	Entry tlb.Entry
	// Table/Index locate the leaf PTE inside its last-level table frame
	// (valid only for Size == Page4K; huge-page leaves live higher up).
	Table memdefs.PPN
	Index int
}

// Core is a policy's per-core extension: extra lookup targets probed
// between the L2 TLB miss and the page walk, kept coherent through the
// same invalidation seams as the L2 TLB (see the package comment for the
// contract). A Core is also a memsys.Device so its counters join the
// machine's telemetry registry and stats reset.
//
// ProbeMiss and OnWalkFill take their arguments by value, never by
// pointer: the compiler cannot see which Core is behind the call, so a
// pointer handed through this interface would move the MMU's lookup tags
// and walk entry to the heap on every translation.
type Core interface {
	memsys.Device

	// ProbeMiss consults the policy structure after an L2 TLB miss and
	// before the walk. ok=true returns a usable 4KB translation; the MMU
	// charges Lat, promotes Entry into the L2 and L1 TLBs and resolves
	// the access without walking. ok=false falls through to the walk and
	// charges MissPenalty.
	ProbeMiss(p MissProbe) (r MissResult, ok bool)

	// MissPenalty is the probe latency charged when ProbeMiss returns
	// ok=false (the structure was still consulted).
	MissPenalty() memdefs.Cycles

	// OnWalkFill observes a completed walk (after the TLB insert); the
	// policy may park or coalesce the new translation.
	OnWalkFill(f WalkFill)

	// Invalidation seams, mirrored from the L2 TLB with identical
	// arguments (group address space).
	InvalidateVA(va memdefs.VAddr)
	InvalidateSharedVA(va memdefs.VAddr, ccid memdefs.CCID)
	FlushPCID(pcid memdefs.PCID)
	FlushAll()

	// CCIDTagged reports the structure's tag mode for the TLB/PTE
	// cross-check audit (CCID-tagged shared entries may be backed by any
	// group member's tables).
	CCIDTagged() bool

	// ForEachValid yields every live cached translation, expanded to
	// one 4KB tlb.Entry per covered page (a coalesced run yields one
	// entry per page of the run), for the cross-check audit.
	ForEachValid(fn func(memdefs.PageSizeClass, *tlb.Entry))
}

// Arch is one registered architecture: a named policy the whole toolchain
// resolves by string.
type Arch struct {
	// Name is the -arch value and telemetry label ("baseline",
	// "babelfish", "victima", ...).
	Name string
	// Desc is the one-line help text shown in CLI usage strings.
	Desc string
	Policy
}

var (
	registry []Arch
	byName   = map[string]int{}
)

// Register adds an architecture to the registry. Names must be unique;
// registration order is preserved (it drives CLI usage strings and the
// arch-compare sweep's column order).
func Register(a Arch) {
	if a.Name == "" || a.Policy == nil {
		panic("xlatpolicy: Register needs a name and a policy")
	}
	if _, dup := byName[a.Name]; dup {
		panic(fmt.Sprintf("xlatpolicy: duplicate architecture %q", a.Name))
	}
	byName[a.Name] = len(registry)
	registry = append(registry, a)
}

// Get resolves an architecture by name.
func Get(name string) (Arch, bool) {
	i, ok := byName[name]
	if !ok {
		return Arch{}, false
	}
	return registry[i], true
}

// MustGet resolves an architecture by name, panicking on unknown names
// (programmer error: callers validate user input with Get first).
func MustGet(name string) Arch {
	a, ok := Get(name)
	if !ok {
		panic(fmt.Sprintf("xlatpolicy: unknown architecture %q", name))
	}
	return a
}

// Names returns the registered architecture names in registration order.
func Names() []string {
	out := make([]string, len(registry))
	for i, a := range registry {
		out[i] = a.Name
	}
	return out
}

// UsageList renders the accepted -arch values for CLI usage strings,
// e.g. "baseline|babelfish|victima|coalesced". extra values (like "both")
// are appended by the caller's convention.
func UsageList(extra ...string) string {
	s := ""
	for i, a := range registry {
		if i > 0 {
			s += "|"
		}
		s += a.Name
	}
	for _, e := range extra {
		if s != "" {
			s += "|"
		}
		s += e
	}
	return s
}

// SortedNames returns the registered names sorted alphabetically (for
// deterministic error messages listing the accepted set).
func SortedNames() []string {
	n := Names()
	sort.Strings(n)
	return n
}
