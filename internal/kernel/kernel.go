// Package kernel is the miniature operating-system model of the BabelFish
// simulator. It owns processes and their address spaces (VMAs), files and
// the page cache, fork with lazy copy-on-write, mmap, the page-fault
// handler (major, minor and CoW faults), per-application container groups
// (CCID groups), BabelFish page-table sharing with MaskPages and PC
// bitmasks, ASLR layout management, and per-core run queues.
//
// The kernel plays the role Linux played inside the paper's Simics
// full-system simulation: it maintains the real page tables (in simulated
// physical frames) that the hardware walker of internal/mmu traverses, and
// it implements the ~1300 lines of MMU/page-fault/page-table-management
// changes the paper reports, in model form.
package kernel

import (
	"fmt"
	"sync/atomic"

	"babelfish/internal/memdefs"
	"babelfish/internal/physmem"
)

// kernelBugs counts invariant panics raised through bug(). The auditor
// reports it so chaos harnesses can assert no invariant tripped even when
// a test recovers the panic.
var kernelBugs uint64

// BugCount reports how many kernel invariant violations have panicked
// process-wide.
func BugCount() uint64 { return atomic.LoadUint64(&kernelBugs) }

// bug raises a kernel invariant violation: a state that cannot be reached
// by any caller input, only by kernel logic errors. Reachable error
// conditions (bad arguments, resource exhaustion) return errors instead.
func bug(format string, args ...interface{}) {
	atomic.AddUint64(&kernelBugs, 1)
	panic("kernel bug: " + fmt.Sprintf(format, args...))
}

// Mode selects the architecture under simulation.
type Mode int

const (
	// ModeBaseline is a conventional server: per-process TLB entries and
	// fully private page tables.
	ModeBaseline Mode = iota
	// ModeBabelFish enables CCID TLB sharing and page-table sharing.
	ModeBabelFish
)

func (m Mode) String() string {
	if m == ModeBabelFish {
		return "BabelFish"
	}
	return "Baseline"
}

// ASLRMode selects the paper's ASLR configuration (Section IV-D).
type ASLRMode int

const (
	// ASLRSW: one layout per CCID group (private group seed).
	ASLRSW ASLRMode = iota
	// ASLRHW: per-process layouts; hardware transform between L1 and L2
	// TLBs. The paper's evaluated default.
	ASLRHW
)

func (m ASLRMode) String() string {
	if m == ASLRHW {
		return "ASLR-HW"
	}
	return "ASLR-SW"
}

// Costs models the kernel-time components of fault handling, in cycles at
// the simulated 2 GHz. They are charged on top of the hardware walk.
type Costs struct {
	FaultBase    memdefs.Cycles // trap entry/exit + VMA lookup
	MinorInstall memdefs.Cycles // rmap/page-cache bookkeeping for a minor fault
	ZeroFill     memdefs.Cycles // zeroing a fresh anonymous page
	MajorDisk    memdefs.Cycles // device latency for a major fault
	CoWCopyPage  memdefs.Cycles // copying one 4KB data page
	PTEPageCopy  memdefs.Cycles // BabelFish: copying a page of 512 pte_t
	LinkTables   memdefs.Cycles // BabelFish: linking a shared table
	ShootdownPer memdefs.Cycles // per-remote-core TLB shootdown IPI
	ForkBase     memdefs.Cycles // fork syscall fixed cost
	ForkPerEntry memdefs.Cycles // per page-table entry copied at fork
}

// DefaultCosts returns the calibration described in DESIGN.md.
func DefaultCosts() Costs {
	return Costs{
		FaultBase:    350,
		MinorInstall: 900,
		ZeroFill:     800,
		MajorDisk:    40000,
		CoWCopyPage:  1000,
		PTEPageCopy:  1000,
		LinkTables:   500,
		ShootdownPer: 400,
		ForkBase:     12000,
		ForkPerEntry: 12,
	}
}

// Config selects kernel behaviour.
type Config struct {
	Mode Mode
	ASLR ASLRMode
	// ShareLevel is the page-table level whose tables are shared between
	// group members; LvlPTE (the default) shares last-level tables as in
	// the paper's Figure 6.
	ShareLevel memdefs.Level
	// NoPCBitmask selects the Section VII-D design alternative: as soon
	// as a write occurs on a CoW page, sharing for the corresponding PMD
	// table set stops and every sharer gets private page-table entries.
	// It eliminates the PC bitmask (0.07% area instead of 0.4%) at the
	// cost of losing sharing in written regions.
	NoPCBitmask bool
	// THP enables transparent huge pages for large anonymous regions.
	THP bool
	// THPMinPages is the minimum anonymous region size (in 4KB pages)
	// eligible for 2MB mappings.
	THPMinPages int
	Costs       Costs
}

// DefaultConfig returns the paper's evaluated configuration for a mode.
func DefaultConfig(mode Mode) Config {
	return Config{
		Mode:        mode,
		ASLR:        ASLRHW,
		ShareLevel:  memdefs.LvlPTE,
		THP:         true,
		THPMinPages: 1024,
		Costs:       DefaultCosts(),
	}
}

// MachineHooks lets the kernel reach the hardware: TLB shootdowns and PWC
// invalidations on every core. A nil hooks value (unit tests) is allowed.
type MachineHooks interface {
	// ShootdownVA invalidates every TLB entry for va on all cores.
	ShootdownVA(va memdefs.VAddr)
	// ShootdownSharedVA invalidates only the shared (O==0) entries for va
	// in the CCID group, on all cores.
	ShootdownSharedVA(va memdefs.VAddr, ccid memdefs.CCID)
	// InvalidatePWC drops a cached upper-level page-table entry on all
	// cores after the kernel rewires a table pointer.
	InvalidatePWC(lvl memdefs.Level, entryAddr memdefs.PAddr)
	// FlushProcess removes one process's TLB entries on all cores (the
	// fork-time CoW write-permission revocation round).
	FlushProcess(pcid memdefs.PCID)
	// NumCores reports the number of cores (for shootdown cost).
	NumCores() int
}

// Stats counts kernel events.
type Stats struct {
	Forks            uint64
	ForkCopiedPTEs   uint64
	ForkLinkedTables uint64
	MinorFaults      uint64
	MajorFaults      uint64
	ZeroFillFaults   uint64
	CoWFaults        uint64
	LinkFaults       uint64 // BabelFish: fault resolved by linking a shared table
	SharedInstalls   uint64 // entries installed into group-shared tables
	PrivateInstalls  uint64
	PTEPageCopies    uint64 // BabelFish private PTE-page copies (CoW events)
	MaskPages        uint64
	MaskOverflows    uint64
	Shootdowns       uint64
	Reclaimed        uint64 // page-cache frames evicted under pressure
	OOMEvents        uint64 // allocation failures that survived reclaim and surfaced as ErrOutOfMemory
	FaultCycles      memdefs.Cycles
}

// Kernel is the OS instance of one simulated machine.
type Kernel struct {
	Mem   *physmem.Memory
	Cfg   Config
	Hooks MachineHooks

	procs    map[memdefs.PID]*Process
	groups   map[memdefs.CCID]*Group
	files    map[string]*File
	nextPID  memdefs.PID
	nextPCID memdefs.PCID
	nextCCID memdefs.CCID

	// zeroPPN is the global read-only zero page shared by anonymous
	// read-before-write mappings.
	zeroPPN memdefs.PPN

	// tick is the LRU clock for page-cache reclaim: it advances on every
	// cache touch, and each cached page remembers the tick of its last use.
	tick uint64

	stats Stats
}

// New creates a kernel over the given physical memory.
func New(mem *physmem.Memory, cfg Config) *Kernel {
	if cfg.ShareLevel == 0 {
		cfg.ShareLevel = memdefs.LvlPTE
	}
	if cfg.Costs == (Costs{}) {
		cfg.Costs = DefaultCosts()
	}
	k := &Kernel{
		Mem:      mem,
		Cfg:      cfg,
		procs:    make(map[memdefs.PID]*Process),
		groups:   make(map[memdefs.CCID]*Group),
		files:    make(map[string]*File),
		nextPID:  100,
		nextPCID: 1,
		nextCCID: 1,
	}
	zp, err := mem.Alloc(physmem.FrameData)
	if err != nil {
		// A memory too small for even the shared zero page is unusable;
		// this is a construction-time invariant, not a runtime OOM.
		bug("cannot allocate the shared zero page: %v", err)
	}
	k.zeroPPN = zp
	return k
}

// Stats returns a copy of the kernel counters.
func (k *Kernel) Stats() Stats { return k.stats }

// ResetStats zeroes the kernel counters.
func (k *Kernel) ResetStats() { k.stats = Stats{} }

// Mode reports the configured architecture mode.
func (k *Kernel) Mode() Mode { return k.Cfg.Mode }

// Process returns a process by pid.
func (k *Kernel) Process(pid memdefs.PID) (*Process, bool) {
	p, ok := k.procs[pid]
	return p, ok
}

// Processes returns all live processes (iteration order unspecified).
func (k *Kernel) Processes() []*Process {
	out := make([]*Process, 0, len(k.procs))
	for _, p := range k.procs {
		out = append(out, p)
	}
	return out
}

// Groups returns all CCID groups.
func (k *Kernel) Groups() []*Group {
	out := make([]*Group, 0, len(k.groups))
	for _, g := range k.groups {
		out = append(out, g)
	}
	return out
}

// numRemoteCores returns the shootdown fan-out.
func (k *Kernel) numRemoteCores() int {
	if k.Hooks == nil {
		return 0
	}
	n := k.Hooks.NumCores() - 1
	if n < 0 {
		n = 0
	}
	return n
}

func (k *Kernel) shootdownVA(va memdefs.VAddr) memdefs.Cycles {
	k.stats.Shootdowns++
	if k.Hooks != nil {
		k.Hooks.ShootdownVA(va)
	}
	return memdefs.Cycles(k.numRemoteCores()) * k.Cfg.Costs.ShootdownPer
}

func (k *Kernel) shootdownSharedVA(va memdefs.VAddr, ccid memdefs.CCID) memdefs.Cycles {
	k.stats.Shootdowns++
	if k.Hooks != nil {
		k.Hooks.ShootdownSharedVA(va, ccid)
	}
	return memdefs.Cycles(k.numRemoteCores()) * k.Cfg.Costs.ShootdownPer
}

// flushProcess revokes all of p's TLB entries on every core: one
// shootdown round.
func (k *Kernel) flushProcess(p *Process) memdefs.Cycles {
	if k.Hooks != nil {
		k.Hooks.FlushProcess(p.PCID)
	}
	k.stats.Shootdowns++
	return memdefs.Cycles(k.numRemoteCores()+1) * k.Cfg.Costs.ShootdownPer
}

func (k *Kernel) invalidatePWC(lvl memdefs.Level, entryAddr memdefs.PAddr) {
	if k.Hooks != nil {
		k.Hooks.InvalidatePWC(lvl, entryAddr)
	}
}

// ErrNoProcess reports a fault for an unknown pid.
var ErrNoProcess = fmt.Errorf("kernel: no such process")
