// Package mmu composes one core's address-translation machinery: L1 I/D
// TLB groups, the unified L2 TLB group, the ASLR-HW address transform, the
// page-walk cache, and the hardware page walker that issues physical
// accesses into the cache hierarchy and raises page faults to the OS.
//
// The translation flow follows Section IV-A and Figure 7 of the paper:
//
//	L1 TLB (1 cycle, process VA) → [ASLR transform, 2 cycles] →
//	L2 TLB (10/12 cycles, group VA) → page walk (PWC + cache hierarchy)
//
// Under BabelFish with ASLR-HW (the paper's evaluated default) the L1 TLBs
// are conventional per-process structures and sharing begins at the L2.
package mmu

import (
	"errors"
	"fmt"

	"babelfish/internal/memdefs"
	"babelfish/internal/memsys"
	"babelfish/internal/pgtable"
	"babelfish/internal/physmem"
	"babelfish/internal/pwc"
	"babelfish/internal/telemetry"
	"babelfish/internal/tlb"
	"babelfish/internal/xlatpolicy"
)

// OS is the kernel-side fault handler the MMU invokes when translation
// fails (non-present entry, CoW write, missing table). It must repair the
// page tables (and perform any shootdowns) so that a retried walk makes
// progress, and report the kernel cycles consumed.
type OS interface {
	HandleFault(pid memdefs.PID, va memdefs.VAddr, write bool, kind memdefs.AccessKind) (memdefs.Cycles, error)
}

// Ctx is the per-process translation context loaded on a context switch
// (CR3, PCID and, with BabelFish, the CCID register and ASLR offsets).
type Ctx struct {
	PID    memdefs.PID
	PCID   memdefs.PCID
	CCID   memdefs.CCID
	Tables *pgtable.Tables

	// SharedVA maps a process virtual address to the CCID group's shared
	// virtual address (the ASLR-HW diff_i_offset adder). nil = identity.
	SharedVA func(memdefs.VAddr) memdefs.VAddr

	// PCBit returns the process's bit index in the PC bitmask for the
	// region containing vpn (from the MaskPage pid_list), if any.
	PCBit func(memdefs.VPN) (int, bool)

	// PCMask returns the current PC bitmask for vpn's page (0 if none).
	PCMask func(memdefs.VPN) uint32
}

// Config selects the architecture variant.
type Config struct {
	// Policy is the translation architecture (see internal/xlatpolicy):
	// it decides the TLB tag modes, whether walk fills populate the O-PC
	// field, and any extra per-core lookup structures probed between the
	// L2 TLB miss and the page walk. nil resolves from the legacy
	// BabelFish boolean (baseline or babelfish).
	Policy xlatpolicy.Policy
	// BabelFish enables CCID-tagged sharing at the L2 TLB and O-PC logic.
	// Normalized by New to mirror the resolved policy's OPC behaviour, so
	// readers (audit, reports) may keep consulting it.
	BabelFish bool
	// ASLRHW models the hardware ASLR configuration: the L1 TLBs stay
	// per-process and every L1 miss pays the address transform.
	ASLRHW bool
	// ASLRXformCycles is the transform latency on an L1 miss (Table I: 2).
	ASLRXformCycles memdefs.Cycles
	// LargerL2 grows the conventional L2 TLB instead of adding BabelFish
	// bits (the §VII-C comparison). Only meaningful with BabelFish=false.
	LargerL2 bool
}

// Stats aggregates per-MMU translation counters.
type Stats struct {
	Translations uint64
	L1Hits       uint64
	L2Hits       uint64
	L2Misses     uint64
	Walks        uint64
	Faults       uint64
	FaultCycles  memdefs.Cycles
	TotalCycles  memdefs.Cycles

	// Split by access kind for the paper's D/I MPKI plots (Figure 10a).
	L2MissData    uint64
	L2MissInstr   uint64
	L2HitData     uint64
	L2HitInstr    uint64
	L2SharedData  uint64 // L2 hits on entries filled by another process
	L2SharedInstr uint64

	// Where walk memory requests were served.
	WalkReqL2, WalkReqL3, WalkReqMem, WalkReqPWC uint64

	// Memory-system fault injection (memsys.Injector seams).
	InjTLBDrops   uint64 // TLB hits discarded (forced re-lookup/walk)
	InjTLBPoisons uint64 // TLB entry tags corrupted in place
	InjPWCDrops   uint64 // PWC hits discarded (forced table refetch)
}

// MMU is one core's translation unit.
type MMU struct {
	cfg Config
	L1D *tlb.Group
	L1I *tlb.Group
	L2  *tlb.Group
	PWC *pwc.PWC
	Mem *physmem.Memory
	OS  OS

	// port is where the hardware walker issues its physical accesses —
	// normally the core's cache hierarchy, optionally wrapped by a
	// memsys.FaultPort.
	port memsys.Port

	// tlbInj/pwcInj, when non-nil, inject deterministic lookup faults
	// (see memsys.Injector). TLB injection supports drop and poison;
	// PWC injection is drop-only (a PWC holds no identity to poison —
	// a corrupt cached entry is modelled as a detected drop + refetch).
	tlbInj *memsys.Injector
	pwcInj *memsys.Injector

	// pol is the resolved translation policy; polCore its per-core
	// extension state (nil when the policy adds no extra structures).
	// opc/xform/l1Private are the policy decisions precomputed off the
	// hot path: O-PC walk fills, the ASLR-HW transform charge, and
	// private (strip-O-PC) L1 fills.
	pol       xlatpolicy.Policy
	polCore   xlatpolicy.Core
	opc       bool
	xform     bool
	l1Private bool

	stats Stats
	// scratch receives resolution details for TranslateInto(nil) callers.
	scratch Info
}

// New builds an MMU with Table I structures for the given configuration.
// port is the memory port the page walker uses (a core's cache hierarchy
// in the real machine).
func New(cfg Config, mem *physmem.Memory, port memsys.Port, os OS) *MMU {
	pol := cfg.Policy
	if pol == nil {
		if cfg.BabelFish {
			pol = xlatpolicy.MustGet("babelfish").Policy
		} else {
			pol = xlatpolicy.MustGet("baseline").Policy
		}
		cfg.Policy = pol
	}
	// Normalize the legacy boolean to the policy's behaviour so readers
	// (sim audit, fleet report) stay truthful under any policy.
	cfg.BabelFish = pol.OPC()
	l1Mode, l2Mode := pol.TagModes(cfg.ASLRHW)
	if cfg.ASLRXformCycles == 0 {
		cfg.ASLRXformCycles = 2
	}
	m := &MMU{
		cfg:       cfg,
		L1D:       tlb.NewGroup(tlb.L1DConfig(l1Mode)),
		L1I:       tlb.NewGroup(tlb.L1IConfig(l1Mode)),
		L2:        tlb.NewGroup(tlb.L2Config(l2Mode, cfg.LargerL2 && !pol.OPC())),
		PWC:       pwc.New(pwc.DefaultConfig()),
		Mem:       mem,
		port:      port,
		OS:        os,
		pol:       pol,
		opc:       pol.OPC(),
		xform:     pol.OPC() && cfg.ASLRHW,
		l1Private: pol.OPC() && cfg.ASLRHW,
	}
	m.polCore = pol.NewCore(xlatpolicy.CoreConfig{Mem: mem})
	return m
}

// Policy returns the resolved translation policy.
func (m *MMU) Policy() xlatpolicy.Policy { return m.pol }

// PolicyCore returns the policy's per-core extension structure (nil for
// policies without one — baseline, babelfish).
func (m *MMU) PolicyCore() xlatpolicy.Core { return m.polCore }

// Config returns the MMU's configuration.
func (m *MMU) Config() Config { return m.cfg }

// Stats returns a copy of the counters.
func (m *MMU) Stats() Stats { return m.stats }

// ResetStats zeroes MMU, TLB and PWC counters (warm-up boundary).
func (m *MMU) ResetStats() {
	m.stats = Stats{}
	m.L1D.ResetStats()
	m.L1I.ResetStats()
	m.L2.ResetStats()
	m.PWC.ResetStats()
	if m.polCore != nil {
		m.polCore.ResetStats()
	}
}

// Port returns the memory port the walker currently uses.
func (m *MMU) Port() memsys.Port { return m.port }

// SetPort swaps the walker's memory port (the machine interposes a
// fault-injection wrapper here).
func (m *MMU) SetPort(p memsys.Port) { m.port = p }

// SetTLBInjector installs (or, with nil, removes) the TLB lookup-fault
// injector. Fired on every TLB hit, it either drops the hit (re-lookup
// downstream, absorbed) or — in poison mode — flips the hit entry's
// identity tags in place: the entry can never legitimately hit again, and
// it now claims a PCID/CCID outside the architected range, which the TLB
// audit must flag as an ownership violation. The translated frame is
// untouched either way, so a wrong translation can never be delivered.
func (m *MMU) SetTLBInjector(in *memsys.Injector) { m.tlbInj = in }

// SetPWCInjector installs (or removes) the PWC lookup-fault injector
// (drop-only: a fired hit is refetched from the cache hierarchy).
func (m *MMU) SetPWCInjector(in *memsys.Injector) { m.pwcInj = in }

// InjectedMemFaults returns the lifetime count of injected TLB/PWC
// lookup faults (not reset by ResetStats — it counts the whole run).
func (m *MMU) InjectedMemFaults() uint64 {
	return m.tlbInj.Injected() + m.pwcInj.Injected()
}

// Name implements memsys.Device.
func (m *MMU) Name() string { return "mmu" }

// DeviceStats implements memsys.Device: the per-MMU translation counters
// as named stats (child devices — TLB groups, PWC — report their own).
func (m *MMU) DeviceStats() memsys.Stats {
	s := &m.stats
	return memsys.Stats{
		{Name: "translations", Unit: "xlat", Help: "translations performed", Value: s.Translations},
		{Name: "l1_hits", Unit: "hit", Help: "L1 TLB hits", Value: s.L1Hits},
		{Name: "l2_hits", Unit: "hit", Help: "L2 TLB hits", Value: s.L2Hits},
		{Name: "l2_misses", Unit: "miss", Help: "L2 TLB misses", Value: s.L2Misses},
		{Name: "walks", Unit: "walk", Help: "hardware page walks", Value: s.Walks},
		{Name: "faults", Unit: "fault", Help: "page faults raised to the kernel", Value: s.Faults},
		{Name: "fault_cycles", Unit: "cyc", Help: "kernel fault-handling cycles", Value: uint64(s.FaultCycles)},
		{Name: "xlat_cycles", Unit: "cyc", Help: "total translation cycles", Value: uint64(s.TotalCycles)},
		{Name: "l2_miss_data", Unit: "miss", Help: "L2 TLB data misses", Value: s.L2MissData},
		{Name: "l2_miss_instr", Unit: "miss", Help: "L2 TLB instruction misses", Value: s.L2MissInstr},
		{Name: "l2_hit_data", Unit: "hit", Help: "L2 TLB data hits", Value: s.L2HitData},
		{Name: "l2_hit_instr", Unit: "hit", Help: "L2 TLB instruction hits", Value: s.L2HitInstr},
		{Name: "l2_shared_data", Unit: "hit", Help: "L2 TLB data hits on another process's entry", Value: s.L2SharedData},
		{Name: "l2_shared_instr", Unit: "hit", Help: "L2 TLB instruction hits on another process's entry", Value: s.L2SharedInstr},
		{Name: "walk_req_pwc", Unit: "req", Help: "walk requests served by the PWC", Value: s.WalkReqPWC},
		{Name: "walk_req_l2", Unit: "req", Help: "walk requests served by the L2 cache", Value: s.WalkReqL2},
		{Name: "walk_req_l3", Unit: "req", Help: "walk requests served by the L3 cache", Value: s.WalkReqL3},
		{Name: "walk_req_mem", Unit: "req", Help: "walk requests served by DRAM", Value: s.WalkReqMem},
		{Name: "inj_tlb_drops", Unit: "fault", Help: "injected TLB hit drops", Value: s.InjTLBDrops},
		{Name: "inj_tlb_poisons", Unit: "fault", Help: "injected TLB tag poisonings", Value: s.InjTLBPoisons},
		{Name: "inj_pwc_drops", Unit: "fault", Help: "injected PWC hit drops", Value: s.InjPWCDrops},
	}
}

// Register installs the MMU stats under "mmu".
func (m *MMU) Register(reg *telemetry.Registry) { memsys.RegisterDevice(reg, m.Name(), m) }

var _ memsys.Device = (*MMU)(nil)

// Errors surfaced by translation.
var (
	ErrProtection = errors.New("mmu: protection violation")
	ErrRetries    = errors.New("mmu: fault retry limit exceeded")
)

const maxRetries = 16

// Info describes how one translation was resolved (for tracing/tests).
type Info struct {
	Level       string // "L1", "L2", "policy", "walk"
	Faults      int
	FaultCycles memdefs.Cycles // kernel cycles spent handling Faults
	SharedL2    bool
	Size        memdefs.PageSizeClass
	WalkMemAcc  int
}

// Translate resolves va for the given context, charging all latency and
// invoking the OS on faults. It returns the physical frame and the cycles
// consumed by translation (not including the subsequent data access).
func (m *MMU) Translate(ctx *Ctx, va memdefs.VAddr, write bool, kind memdefs.AccessKind) (memdefs.PPN, memdefs.Cycles, Info, error) {
	var info Info
	ppn, cycles, err := m.TranslateInto(ctx, va, write, kind, &info)
	return ppn, cycles, info, err
}

// TranslateInto is Translate without the Info copy on return: the caller
// passes where the resolution details should be written, or nil when it
// does not care. The simulator's inner loop calls this with nil whenever
// no span recorder or telemetry is attached, so the common path does not
// pay for copying a multi-word struct per memory access. With nil the details
// land in a per-MMU scratch Info — safe because an MMU belongs to exactly
// one core and is never called concurrently.
func (m *MMU) TranslateInto(ctx *Ctx, va memdefs.VAddr, write bool, kind memdefs.AccessKind, info *Info) (memdefs.PPN, memdefs.Cycles, error) {
	if info == nil {
		// The scratch Info is never read, so skip even the clear.
		info = &m.scratch
	} else {
		*info = Info{}
	}
	m.stats.Translations++
	var cycles memdefs.Cycles

	l1 := m.L1D
	if kind == memdefs.AccessInstr {
		l1 = m.L1I
	}

	for retry := 0; retry < maxRetries; retry++ {
		// --- L1 TLB, probed with the process virtual address.
		q := tlb.Lookup{
			Write: write,
			Exec:  kind == memdefs.AccessInstr,
			PCID:  ctx.PCID,
			CCID:  ctx.CCID,
			PID:   ctx.PID,
			PCBit: ctx.PCBit,
		}
		r1 := l1.Lookup(va, q)
		cycles += r1.Lat
		if r1.Res == tlb.Hit && m.tlbInj != nil && m.tlbInj.Fire() {
			// Injected lookup fault: the hit is not trusted. Drop mode
			// discards it (the L2/walk below re-derives the translation);
			// poison mode corrupts the entry's tags for the audit to find.
			m.corruptTLBHit(r1.Entry)
			r1.Res = tlb.Miss
			r1.Entry = nil
		}
		switch r1.Res {
		case tlb.Hit:
			m.stats.L1Hits++
			m.stats.TotalCycles += cycles
			info.Level = "L1"
			info.Size = r1.Size
			return m.ppnFor(r1.Entry, r1.Size, va), cycles, nil
		case tlb.HitCoWFault:
			// The entry is stale by definition (a write through it can
			// never succeed); drop the local translations so the retry
			// makes progress even if the kernel's shootdown misses this
			// core. The L2 holds the same stale mapping under the shared
			// (group) address.
			l1.InvalidateVA(va)
			if ctx.SharedVA != nil {
				m.l2InvalidateVA(ctx.SharedVA(va))
			} else {
				m.l2InvalidateVA(va)
			}
			fc, err := m.fault(ctx, va, write, kind, info)
			cycles += fc
			if err != nil {
				return 0, cycles, err
			}
			continue
		case tlb.HitProtFault:
			return 0, cycles, fmt.Errorf("%w: pid %d va %#x write=%v kind=%v (L1)", ErrProtection, ctx.PID, va, write, kind)
		}

		// --- ASLR-HW transform between L1 and L2 TLBs.
		sva := va
		if ctx.SharedVA != nil {
			sva = ctx.SharedVA(va)
			if m.xform {
				cycles += m.cfg.ASLRXformCycles
			}
		}

		// --- L2 TLB, probed with the group's shared virtual address.
		r2 := m.L2.Lookup(sva, q)
		cycles += r2.Lat
		if r2.Res == tlb.Hit && m.tlbInj != nil && m.tlbInj.Fire() {
			m.corruptTLBHit(r2.Entry)
			r2.Res = tlb.Miss
			r2.Entry = nil
		}
		switch r2.Res {
		case tlb.Hit:
			m.stats.L2Hits++
			shared := r2.Entry.BroughtBy != ctx.PID
			if kind == memdefs.AccessInstr {
				m.stats.L2HitInstr++
				if shared {
					m.stats.L2SharedInstr++
				}
			} else {
				m.stats.L2HitData++
				if shared {
					m.stats.L2SharedData++
				}
			}
			info.Level = "L2"
			info.SharedL2 = shared
			info.Size = r2.Size
			m.fillL1(l1, ctx, va, r2.Size, r2.Entry)
			m.stats.TotalCycles += cycles
			return m.ppnFor(r2.Entry, r2.Size, va), cycles, nil
		case tlb.HitCoWFault:
			m.l2InvalidateSharedVA(sva, ctx.CCID)
			m.l2InvalidateVA(sva)
			fc, err := m.fault(ctx, va, write, kind, info)
			cycles += fc
			if err != nil {
				return 0, cycles, err
			}
			continue
		case tlb.HitProtFault:
			return 0, cycles, fmt.Errorf("%w: pid %d va %#x write=%v kind=%v (L2)", ErrProtection, ctx.PID, va, write, kind)
		}
		m.stats.L2Misses++
		if kind == memdefs.AccessInstr {
			m.stats.L2MissInstr++
		} else {
			m.stats.L2MissData++
		}

		// --- Policy structures (parked PTEs, coalesced runs), probed
		// between the L2 TLB miss and the hardware walk. A hit yields a
		// 4KB leaf translation promoted into both TLB levels; a miss still
		// pays the probe (the structure was consulted either way).
		if m.polCore != nil {
			if r, ok := m.polCore.ProbeMiss(xlatpolicy.MissProbe{VA: va, SVA: sva, Q: q}); ok {
				cycles += r.Lat
				e2 := r.Entry
				m.L2.Insert(memdefs.Page4K, e2)
				m.fillL1(l1, ctx, va, memdefs.Page4K, &e2)
				info.Level = "policy"
				info.Size = memdefs.Page4K
				m.stats.TotalCycles += cycles
				return m.ppnFor(&e2, memdefs.Page4K, va), cycles, nil
			}
			cycles += m.polCore.MissPenalty()
		}

		// --- Hardware page walk.
		ppn, wc, ok, err := m.walk(ctx, l1, va, sva, write, kind, info)
		cycles += wc
		if err != nil {
			return 0, cycles, err
		}
		if ok {
			info.Level = "walk"
			m.stats.TotalCycles += cycles
			return ppn, cycles, nil
		}
		// A fault was handled during the walk; retry from the top.
	}
	return 0, cycles, fmt.Errorf("%w: pid %d va %#x", ErrRetries, ctx.PID, va)
}

// poisonTag is OR-ed into a poisoned entry's PCID and CCID: it sits just
// above the architected 12-bit ID ranges, so the corrupted entry can never
// match a live process or container group — it can never hit again (no
// wrong translation is ever delivered), but it now claims a nonexistent
// owner, which the TLB/PTE cross-check audit must flag.
const poisonTag = 1 << memdefs.PCIDBits

// corruptTLBHit applies the injected fault to a hit entry: poison flips
// its identity tags in place; drop just discards the lookup result (the
// caller forces a miss either way).
func (m *MMU) corruptTLBHit(e *tlb.Entry) {
	if m.tlbInj.Mode() == memsys.ModePoison {
		e.PCID |= poisonTag
		e.CCID |= poisonTag
		m.stats.InjTLBPoisons++
		return
	}
	m.stats.InjTLBDrops++
}

// fault invokes the OS handler and accounts it.
func (m *MMU) fault(ctx *Ctx, va memdefs.VAddr, write bool, kind memdefs.AccessKind, info *Info) (memdefs.Cycles, error) {
	m.stats.Faults++
	info.Faults++
	fc, err := m.OS.HandleFault(ctx.PID, va, write, kind)
	m.stats.FaultCycles += fc
	info.FaultCycles += fc
	return fc, err
}

// ChargeDeferredFault accounts kernel fault-handling cycles that were
// serviced outside a translation. Sharded machine stepping defers faults
// to the quantum barrier: the in-translation OS call returns zero cycles
// and a sentinel, the kernel handles the fault at the barrier, and the
// real cost is charged here before the faulting access retries.
func (m *MMU) ChargeDeferredFault(fc memdefs.Cycles) {
	m.stats.FaultCycles += fc
	m.stats.TotalCycles += fc
}

// walk performs the 4-level hardware walk for sva on ctx's tables. It
// returns ok=false (with no error) when a fault was taken and handled, in
// which case the caller retries the full translation.
func (m *MMU) walk(ctx *Ctx, l1 *tlb.Group, va, sva memdefs.VAddr, write bool, kind memdefs.AccessKind, info *Info) (memdefs.PPN, memdefs.Cycles, bool, error) {
	m.stats.Walks++
	var cycles memdefs.Cycles
	table := ctx.Tables.Root
	var leaf pgtable.Entry
	var leafLvl memdefs.Level
	var pmdEntry pgtable.Entry
	var leafTable memdefs.PPN
	var leafIdx int

	for lvl := memdefs.LvlPGD; ; lvl++ {
		idx := lvl.Index(sva)
		entryAddr := physmem.EntryAddr(table, idx)
		var e pgtable.Entry
		if pwc.Caches(lvl) {
			val, hit, plat := m.PWC.Lookup(lvl, entryAddr)
			cycles += plat
			if hit && m.pwcInj != nil && m.pwcInj.Fire() {
				// Injected PWC fault: the cached entry is not trusted;
				// refetch it from the memory hierarchy (absorbed).
				m.stats.InjPWCDrops++
				hit = false
			}
			if hit {
				m.stats.WalkReqPWC++
				e = pgtable.Entry(val)
			} else {
				clat, where := m.port.Access(entryAddr, memdefs.AccessWalk, false)
				cycles += clat
				info.WalkMemAcc++
				m.countWalkWhere(where)
				e = pgtable.Entry(m.Mem.ReadEntry(table, idx))
				// Only present non-leaf entries are cached: a real PWC
				// never holds invalid entries, and huge-page leaves are
				// the TLB's job.
				if e.Present() && !e.Huge() {
					m.PWC.Insert(lvl, entryAddr, uint64(e))
				}
			}
		} else {
			clat, where := m.port.Access(entryAddr, memdefs.AccessWalk, false)
			cycles += clat
			info.WalkMemAcc++
			m.countWalkWhere(where)
			e = pgtable.Entry(m.Mem.ReadEntry(table, idx))
		}
		if lvl == memdefs.LvlPMD {
			pmdEntry = e
		}

		if lvl == memdefs.LvlPTE || (e.Present() && e.Huge()) {
			if !e.Present() {
				fc, err := m.fault(ctx, va, write, kind, info)
				cycles += fc
				return 0, cycles, false, err
			}
			leaf, leafLvl, leafTable, leafIdx = e, lvl, table, idx
			break
		}
		if !e.Present() || e.PPN() == 0 {
			fc, err := m.fault(ctx, va, write, kind, info)
			cycles += fc
			return 0, cycles, false, err
		}
		table = e.PPN()
	}

	// Permission checks on the leaf.
	if write && !leaf.Writable() {
		if leaf.CoW() {
			fc, err := m.fault(ctx, va, write, kind, info)
			cycles += fc
			return 0, cycles, false, err
		}
		return 0, cycles, false, fmt.Errorf("%w: pid %d write to %#x", ErrProtection, ctx.PID, va)
	}
	if kind == memdefs.AccessInstr && leaf.NoExec() {
		return 0, cycles, false, fmt.Errorf("%w: pid %d exec of %#x", ErrProtection, ctx.PID, va)
	}

	// Update Accessed/Dirty bits in place, as the hardware walker does.
	// The update is an atomic OR: under sharded stepping walkers on
	// different cores may race to the same entry, and OR leaves the same
	// final bits in any interleaving.
	ad := pgtable.FlagAccess
	if write {
		ad |= pgtable.FlagDirty
	}
	if leaf&ad != ad {
		leaf = leaf.With(ad)
		m.Mem.OrEntry(leafTable, leafIdx, uint64(ad))
	}

	// Determine the size class and construct the TLB entries.
	size := memdefs.Page4K
	switch leafLvl {
	case memdefs.LvlPMD:
		size = memdefs.Page2M
	case memdefs.LvlPUD:
		size = memdefs.Page1G
	}
	info.Size = size

	e2 := tlb.Entry{
		VPN:       size.VPNOf(sva),
		PPN:       leaf.PPN(),
		Perm:      leaf.Perm(),
		CoW:       leaf.CoW(),
		PCID:      ctx.PCID,
		CCID:      ctx.CCID,
		BroughtBy: ctx.PID,
	}
	if m.opc {
		e2.Owned = leaf.Owned()
		// ORPC lives in the pmd_t (Figure 5a); for 2MB huge pages the PMD
		// entry is the leaf itself, and 1GB entries carry their own bit.
		switch leafLvl {
		case memdefs.LvlPTE, memdefs.LvlPMD:
			e2.ORPC = pmdEntry.ORPC()
		default:
			e2.ORPC = leaf.ORPC()
		}
		if e2.ORPC && !e2.Owned && ctx.PCMask != nil {
			// The hardware reads the MaskPage in parallel with the pte_t
			// fetch (Appendix), so no extra latency is charged here.
			e2.PCMask = ctx.PCMask(size.VPNOf(sva))
		}
	}
	m.L2.Insert(size, e2)
	m.fillL1(l1, ctx, va, size, &e2)
	if m.polCore != nil {
		m.polCore.OnWalkFill(xlatpolicy.WalkFill{
			VA: va, SVA: sva, Size: size,
			Entry: e2, Table: leafTable, Index: leafIdx,
		})
	}

	ppn := leaf.PPN()
	switch size {
	case memdefs.Page2M:
		ppn += memdefs.PPN((uint64(va) >> memdefs.PageShift) & (memdefs.TableSize - 1))
	case memdefs.Page1G:
		ppn += memdefs.PPN((uint64(va) >> memdefs.PageShift) & (memdefs.TableSize*memdefs.TableSize - 1))
	}
	return ppn, cycles, true, nil
}

func (m *MMU) countWalkWhere(w memsys.Where) {
	switch w {
	case memsys.WhereL2:
		m.stats.WalkReqL2++
	case memsys.WhereL3:
		m.stats.WalkReqL3++
	case memsys.WhereMem:
		m.stats.WalkReqMem++
	}
}

// fillL1 installs a translation into the L1 group, tagged with the
// process virtual page number (the L1 sits above the ASLR transform).
func (m *MMU) fillL1(l1 *tlb.Group, ctx *Ctx, va memdefs.VAddr, size memdefs.PageSizeClass, src *tlb.Entry) {
	e := *src
	e.VPN = size.VPNOf(va)
	e.BroughtBy = ctx.PID
	if m.l1Private {
		// L1 entries are private: conventional PCID tagging, no O-PC.
		e.Owned = false
		e.ORPC = false
		e.PCMask = 0
		e.MaskLoaded = false
	}
	e.PCID = ctx.PCID
	l1.Insert(size, e)
}

// ppnFor applies the within-huge-page offset for L1/L2 hits.
func (m *MMU) ppnFor(e *tlb.Entry, size memdefs.PageSizeClass, va memdefs.VAddr) memdefs.PPN {
	switch size {
	case memdefs.Page2M:
		return e.PPN + memdefs.PPN((uint64(va)>>memdefs.PageShift)&(memdefs.TableSize-1))
	case memdefs.Page1G:
		return e.PPN + memdefs.PPN((uint64(va)>>memdefs.PageShift)&(memdefs.TableSize*memdefs.TableSize-1))
	default:
		return e.PPN
	}
}

// l2InvalidateVA drops va's L2 TLB entries and mirrors the invalidation
// into the policy core (see the xlatpolicy invalidation contract: policy
// structures cache the same group-address translations as the L2).
func (m *MMU) l2InvalidateVA(va memdefs.VAddr) {
	m.L2.InvalidateVA(va)
	if m.polCore != nil {
		m.polCore.InvalidateVA(va)
	}
}

// l2InvalidateSharedVA is the shared-entry (CoW) counterpart.
func (m *MMU) l2InvalidateSharedVA(va memdefs.VAddr, ccid memdefs.CCID) {
	m.L2.InvalidateSharedVA(va, ccid)
	if m.polCore != nil {
		m.polCore.InvalidateSharedVA(va, ccid)
	}
}

// InvalidateVA removes all translations of va from every TLB level and
// drops stale PWC state (full per-page shootdown on this core).
func (m *MMU) InvalidateVA(va memdefs.VAddr) {
	m.L1D.InvalidateVA(va)
	m.L1I.InvalidateVA(va)
	m.l2InvalidateVA(va)
}

// InvalidateSharedVA removes only the shared (O==0) entries for va (a
// group VA) in the given CCID group — the paper's CoW invalidation. Only
// the L2 TLB holds shared entries under ASLR-HW; the writer's own private
// L1 entry is dropped by the accompanying full shootdown of its process
// VA.
func (m *MMU) InvalidateSharedVA(va memdefs.VAddr, ccid memdefs.CCID) {
	m.l2InvalidateSharedVA(va, ccid)
	if !m.l1Private {
		m.L1D.InvalidateSharedVA(va, ccid)
		m.L1I.InvalidateSharedVA(va, ccid)
	}
}

// InvalidatePWCEntry drops a cached upper-level entry after the kernel
// rewires a table pointer (e.g. the BabelFish CoW private-PTE-page swap).
func (m *MMU) InvalidatePWCEntry(lvl memdefs.Level, entryAddr memdefs.PAddr) {
	m.PWC.InvalidateEntry(lvl, entryAddr)
}

// FlushPCID removes one process's entries from all TLB levels (fork-time
// CoW permission revocation) and empties the page-walk cache: the PWC is
// keyed by physical entry addresses, so when a process's table frames are
// unlinked or freed (munmap, exit) its cached upper-level entries cannot
// be removed selectively and could otherwise alias reused frames.
func (m *MMU) FlushPCID(pcid memdefs.PCID) {
	m.L1D.FlushPCID(pcid)
	m.L1I.FlushPCID(pcid)
	m.L2.FlushPCID(pcid)
	m.PWC.FlushAll()
	if m.polCore != nil {
		m.polCore.FlushPCID(pcid)
	}
}

// FlushAll empties all TLBs and the PWC (not used on context switches —
// PCID/CCID tagging keeps entries live across CR3 writes).
func (m *MMU) FlushAll() {
	m.L1D.FlushAll()
	m.L1I.FlushAll()
	m.L2.FlushAll()
	m.PWC.FlushAll()
	if m.polCore != nil {
		m.polCore.FlushAll()
	}
}
