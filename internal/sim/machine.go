// Package sim assembles the full machine of Table I — 8 out-of-order
// cores abstracted as in-order reference streams with a base CPI, each
// with private L1 I/D caches, a private L2, L1/L2 TLB groups, a page-walk
// cache and hardware walker, above a shared L3, a DDR memory model, and
// the kernel — and time-multiplexes container processes on cores with a
// 10 ms scheduling quantum, exactly the paper's conservative co-location
// setup (2 data-serving/compute containers or 3 function containers per
// core).
package sim

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"babelfish/internal/cache"
	"babelfish/internal/dram"
	"babelfish/internal/kernel"
	"babelfish/internal/memdefs"
	"babelfish/internal/memsys"
	"babelfish/internal/metrics"
	"babelfish/internal/mmu"
	"babelfish/internal/obs"
	"babelfish/internal/physmem"
	"babelfish/internal/telemetry"
	"babelfish/internal/xlatpolicy"
)

// ReqMark labels request boundaries inside a generated access stream.
type ReqMark int

const (
	ReqNone ReqMark = iota
	ReqStart
	ReqEnd
)

// Step is one unit of generated work: Think non-memory instructions
// followed by one memory access (VA is a process virtual address).
type Step struct {
	VA    memdefs.VAddr
	Write bool
	Kind  memdefs.AccessKind
	Think int
	Req   ReqMark
}

// Generator produces a process's access stream. Next fills the step and
// reports false when the process has run to completion (FaaS functions).
type Generator interface {
	Next(*Step) bool
}

// BatchGenerator is an optional Generator extension: NextBatch fills up
// to len(buf) steps and returns how many were produced — exactly the
// steps Next would have produced, in the same order. Short non-zero
// counts are fine mid-stream; zero means the stream is complete.
// Generators write their steps straight into buf, the task's carry
// buffer, so the inner loop pays one dynamic dispatch per slice instead
// of one per memory access, and each step is written once.
//
// Identity contract: the scheduler consumes everything a call returned
// before calling again, so a generator whose build machinery mutates
// kernel state (unmap/remap churn) must build at most once per call —
// that pins its mutations to the same point in machine time as
// step-at-a-time generation. Pure generators may build as often as they
// like to fill buf.
type BatchGenerator interface {
	Generator
	NextBatch(buf []Step) int
}

// batchSteps sizes a task's step carry buffer. Unconsumed steps persist
// on the task across quantum boundaries, so batching never reorders or
// drops work relative to step-at-a-time generation.
const batchSteps = 256

// KernelMutator marks a generator whose step *production* mutates kernel
// state (unmap/remap churn, like GraphChi's shard rotation). The parallel
// executor serializes such generators' refills at the quantum barrier;
// generators without the marker (or reporting false) are assumed to be
// pure producers and are refilled inline on their core's goroutine. The
// serial executor refills every generator inline.
type KernelMutator interface {
	MutatesKernel() bool
}

// Starver marks a generator that can run dry *temporarily*: when Starved
// reports true, a refill returning zero steps means "no work admitted
// right now", not end-of-stream, so the scheduler parks the task instead
// of marking it Done. The fleet's open-loop request gates
// (internal/workloads.RequestGate) use this to drain exactly the
// admitted requests each epoch. Starved must be deterministic in the
// generator's own state — the stepping driver consults it on every
// refill that comes back empty, under either executor.
type Starver interface {
	Starved() bool
}

// Params configures a machine.
type Params struct {
	Cores    int
	MemBytes uint64
	// Quantum is the scheduling timeslice in cycles (10 ms at 2 GHz in
	// the paper; scaled down together with the workloads).
	Quantum memdefs.Cycles
	// CtxSwitch is the direct context-switch cost in cycles.
	CtxSwitch memdefs.Cycles
	// CPITenths is the base cost of a non-memory instruction in tenths
	// of a cycle (5 = the 2-issue core's 0.5 cycles/instruction).
	CPITenths int
	// SMT gives each quantum two hardware threads, the core's next
	// runnable task and the runnable one after it, whose steps alternate
	// instead of time-slicing — the paper's other co-scheduling scenario
	// ("either in SMT mode, or due to an over-subscribed system"). The
	// threads share the core's TLBs, PWC and caches, each pays twice the
	// think-time CPI, and a halted thread leaves the core to its sibling.
	// It changes what a quantum runs, not which executor runs it.
	SMT bool

	// CoreShards > 0 builds a sharded machine (a private L3 way-slice and
	// DRAM per core) and selects the parallel executor: cores run their
	// quanta concurrently on up to CoreShards goroutines between
	// deterministic barriers, with kernel effects deferred to the barrier
	// and applied in core-ID order, SMT or not, observed or not. Output
	// is identical for any shard count >= 1. 0 (the default) keeps one
	// shared L3/DRAM and the serial executor, which RunTaskOnly also
	// uses. Both executors run the same quantum and step loop (see
	// shard.go).
	CoreShards int

	MMU    mmu.Config
	Kernel kernel.Config
	Hier   cache.HierarchyConfig
	L3     cache.Config
	DRAM   dram.Config
}

// DefaultParams returns Table I's machine for the given kernel mode, with
// the scheduling quantum scaled to simulation-friendly lengths. The MMU
// runs the babelfish translation policy in BabelFish mode and the
// baseline policy otherwise.
func DefaultParams(mode kernel.Mode) Params {
	kcfg := kernel.DefaultConfig(mode)
	arch := "baseline"
	if mode == kernel.ModeBabelFish {
		arch = "babelfish"
	}
	return Params{
		Cores:     8,
		MemBytes:  4 << 30, // scaled from 32GB together with the datasets
		Quantum:   2_000_000,
		CtxSwitch: 2000,
		CPITenths: 5,
		MMU: mmu.Config{
			Policy:          xlatpolicy.MustGet(arch),
			ASLRHW:          kcfg.ASLR == kernel.ASLRHW,
			ASLRXformCycles: 2,
		},
		Kernel: kcfg,
		Hier:   cache.DefaultHierarchyConfig(),
		L3:     cache.DefaultL3Config(),
		DRAM:   dram.DefaultConfig(),
	}
}

// ParamsForArch returns Table I's machine for a named translation
// architecture (see internal/xlatpolicy): the kernel runs in
// BabelFish page-table-sharing mode exactly when the policy asks for it,
// and every core's MMU resolves the policy's tag modes and extra lookup
// structures. Unknown names return an error listing the accepted set.
func ParamsForArch(name string) (Params, error) {
	a, ok := xlatpolicy.Get(name)
	if !ok {
		return Params{}, fmt.Errorf("sim: unknown architecture %q (have %s)",
			name, strings.Join(xlatpolicy.Names(), ", "))
	}
	mode := kernel.ModeBaseline
	if a.SharedKernel() {
		mode = kernel.ModeBabelFish
	}
	p := DefaultParams(mode)
	p.MMU.Policy = a
	return p, nil
}

// Task is one schedulable process with its access generator.
type Task struct {
	Proc *kernel.Process
	Gen  Generator
	// Lat records request wall-clock latency (core cycles, including the
	// time other co-scheduled containers hold the core) — the client-
	// visible latency of data-serving requests. Its exact samples feed
	// the p95 tail and the bring-up window's maximum.
	Lat telemetry.Samples

	ctx         mmu.Ctx
	Instrs      uint64
	Cycles      memdefs.Cycles
	reqStart    memdefs.Cycles
	reqStartOwn memdefs.Cycles
	inReq       bool
	Done        bool

	// OwnReqs counts the requests recorded since the last ResetStats and
	// OwnCycles sums the task's own cycles over their windows (see
	// MeanOwn).
	OwnReqs   uint64
	OwnCycles memdefs.Cycles

	// Step carry buffer for BatchGenerator streams (see batchSteps).
	// boundGen tracks which generator the buffer state was derived from:
	// callers may swap Gen between runs (the container engine substitutes
	// the bring-up sequence), and syncGen re-binds lazily on the next pull.
	boundGen Generator
	bgen     BatchGenerator
	batch    []Step
	bpos     int
	blen     int
	// genMutates records whether the generator declared (via
	// KernelMutator) that producing steps mutates kernel state; the
	// parallel executor pushes such refills to the quantum barrier.
	genMutates bool
	// starver is the generator's Starver view, when it has one: an empty
	// refill from a starved generator parks the task instead of
	// finishing it (open-loop admission gating).
	starver Starver
	// OOMKilled marks a task terminated by the machine's OOM killer: an
	// allocation failed even after reclaim, so the process was exited (its
	// memory freed) instead of crashing the whole run.
	OOMKilled bool
}

// Core is one processor core with its private memory-system state.
type Core struct {
	ID   int
	Hier *cache.Hierarchy
	MMU  *mmu.MMU

	// Mem is the port the core's loads/stores/fetches go through —
	// normally Hier, optionally wrapped by a memsys.FaultPort (see
	// Machine.SetMemInjector).
	Mem memsys.Port

	tasks  []*Task
	cur    int
	Cycles memdefs.Cycles
	Instrs uint64
}

// Machine is the simulated server.
type Machine struct {
	Params Params
	Mem    *physmem.Memory
	// L3 and DRAM are the shared last-level cache and memory backend of
	// a CoreShards == 0 build. A sharded build (CoreShards > 0) gives
	// every core a private L3 way-slice and DRAM instance instead (cores
	// must not share mutable memory-system state during a parallel
	// phase); both fields are then nil and coreL3/coreDRAM hold the
	// per-core devices.
	L3     *cache.Cache
	DRAM   *dram.DRAM
	Kernel *kernel.Kernel
	Cores  []*Core

	coreL3   []*cache.Cache
	coreDRAM []*dram.DRAM
	eng      *shardEngine

	// Registry is the machine's telemetry registry: every stat producer
	// is registered at construction via pull probes (see
	// internal/telemetry and telemetry.go in this package). Snapshots
	// work at any time; histogram and time-series collection start with
	// EnableTelemetry.
	Registry *telemetry.Registry

	telemetryOn         bool
	sampler             *telemetry.Sampler
	histXlat, histFault *telemetry.Hist
	// sampleAt is the core clock at which the sampler's next sample falls
	// due (the boundary Sampler.Tick advances to); MaxUint64 while
	// sampling is off, so a segment's check is one compare.
	sampleAt uint64

	// obsRec, when non-nil, records causal spans — one per scheduling
	// quantum, plus fault and OOM-kill children — into the machine's
	// obs recorder (see EnableObs and obs.go in this package). obsNode
	// labels the spans with the owning fleet node (-1 standalone).
	obsRec      *obs.Recorder
	obsNode     int
	lastOOMSpan obs.SpanID

	oomKills uint64

	// devGroups is the memsys device layer: every memory-system component
	// grouped by role, built once at construction. Telemetry registration
	// and the stats reset walk this list instead of hand-enumerating
	// concrete fields.
	devGroups []deviceGroup

	// Memory-system fault injection state (see SetMemInjector). A
	// CoreShards == 0 build has at most one DRAM fault port; a sharded
	// build has one per core's private DRAM.
	cacheFaultPorts []*memsys.FaultPort
	dramFaultPorts  []*memsys.FaultPort
}

// deviceGroup is a set of same-shaped devices (one per core for private
// structures) registered under one telemetry prefix.
type deviceGroup struct {
	prefix string
	devs   []memsys.Device
}

// New builds a machine.
func New(p Params) *Machine {
	mem := physmem.New(p.MemBytes)
	k := kernel.New(mem, p.Kernel)
	m := &Machine{Params: p, Mem: mem, Kernel: k, sampleAt: math.MaxUint64}
	m.eng = &shardEngine{m: m}
	sharded := p.CoreShards > 0
	var sliceCfg cache.Config
	if sharded {
		sliceCfg = l3SliceConfig(p.L3, p.Cores)
	} else {
		m.DRAM = dram.New(p.DRAM)
		m.L3 = cache.New(p.L3, m.DRAM)
	}
	for i := 0; i < p.Cores; i++ {
		l3 := m.L3
		if sharded {
			d := dram.New(p.DRAM)
			l3 = cache.New(sliceCfg, d)
			m.coreDRAM = append(m.coreDRAM, d)
			m.coreL3 = append(m.coreL3, l3)
		}
		hier := cache.NewHierarchy(p.Hier, l3)
		core := &Core{ID: i, Hier: hier, Mem: hier}
		core.MMU = mmu.New(p.MMU, mem, hier, &shardOS{eng: m.eng, core: i})
		m.Cores = append(m.Cores, core)
		m.eng.cores = append(m.eng.cores, &shardCore{c: core})
	}
	m.checkCacheReach()
	k.Hooks = m
	m.buildDeviceGroups()
	m.registerMetrics()
	return m
}

// checkCacheReach panics when a cache level's tag words cannot tell
// apart every line of the machine's physical memory (see cache.Reach);
// like an invalid cache geometry, that is a configuration error.
func (m *Machine) checkCacheReach() {
	bytes := uint64(m.Mem.NumFrames()) * memdefs.PageSize
	levels := append([]*cache.Cache{m.L3}, m.coreL3...)
	for _, c := range m.Cores {
		levels = append(levels, c.Hier.L1I, c.Hier.L1D, c.Hier.L2)
	}
	for _, c := range levels {
		if c != nil && c.Reach() < bytes {
			panic(fmt.Sprintf("sim: cache %s tells apart %d bytes of physical memory, machine has %d", c.Name(), c.Reach(), bytes))
		}
	}
}

// l3SliceConfig carves one core's way-slice out of the shared L3
// configuration: same sets, ways divided among the cores (at least one),
// size scaled to match.
func l3SliceConfig(l3 cache.Config, cores int) cache.Config {
	ways := l3.Ways / cores
	if ways < 1 {
		ways = 1
	}
	numSets := l3.SizeBytes / (l3.LineSize * l3.Ways)
	l3.Ways = ways
	l3.SizeBytes = numSets * l3.LineSize * ways
	return l3
}

// buildDeviceGroups assembles the memsys device layer: per-core devices
// grouped by role (summed in telemetry), shared devices alone. The order
// fixes the telemetry registration order.
func (m *Machine) buildDeviceGroups() {
	perCore := func(pick func(*Core) memsys.Device) []memsys.Device {
		devs := make([]memsys.Device, len(m.Cores))
		for i, c := range m.Cores {
			devs[i] = pick(c)
		}
		return devs
	}
	l3devs := []memsys.Device{m.L3}
	dramdevs := []memsys.Device{m.DRAM}
	if m.L3 == nil {
		// Sharded build: per-core L3 slices and DRAM instances sum under
		// the same telemetry prefixes as the shared devices would.
		l3devs, dramdevs = nil, nil
		for i := range m.coreL3 {
			l3devs = append(l3devs, m.coreL3[i])
			dramdevs = append(dramdevs, m.coreDRAM[i])
		}
	}
	m.devGroups = []deviceGroup{
		{"mmu", perCore(func(c *Core) memsys.Device { return c.MMU })},
		{"tlb.l2", perCore(func(c *Core) memsys.Device { return c.MMU.L2 })},
		{"tlb.l1d", perCore(func(c *Core) memsys.Device { return c.MMU.L1D })},
		{"tlb.l1i", perCore(func(c *Core) memsys.Device { return c.MMU.L1I })},
		{"pwc", perCore(func(c *Core) memsys.Device { return c.MMU.PWC })},
	}
	// Policies with per-core structures (Victima, coalesced) join the
	// device layer under the structure's own name; baseline and babelfish
	// have none, so their telemetry schema is unchanged.
	if len(m.Cores) > 0 && m.Cores[0].MMU.PolicyCore() != nil {
		pc := m.Cores[0].MMU.PolicyCore()
		m.devGroups = append(m.devGroups,
			deviceGroup{pc.Name(), perCore(func(c *Core) memsys.Device { return c.MMU.PolicyCore() })})
	}
	m.devGroups = append(m.devGroups, []deviceGroup{
		{"cache.l1d", perCore(func(c *Core) memsys.Device { return c.Hier.L1D })},
		{"cache.l1i", perCore(func(c *Core) memsys.Device { return c.Hier.L1I })},
		{"cache.l2", perCore(func(c *Core) memsys.Device { return c.Hier.L2 })},
		{"cache.l3", l3devs},
		{"dram", dramdevs},
	}...)
}

// SetMemInjector installs deterministic fault injectors at the selected
// memory-system seams: TLB and PWC lookups inside each core's MMU, a
// FaultPort wrapping each core's cache hierarchy, and a FaultPort between
// the shared L3 and DRAM. Every seam gets its own Injector instance with
// the same config, so the per-device event sequences — and therefore the
// fault pattern — are deterministic and replayable. Calling it again
// replaces the previous wiring (targets 0 or a disabled config removes
// all injectors and restores the direct ports).
func (m *Machine) SetMemInjector(targets memsys.Target, cfg memsys.InjectConfig) {
	for _, c := range m.Cores {
		c.Mem = c.Hier
		c.MMU.SetPort(c.Hier)
		c.MMU.SetTLBInjector(nil)
		c.MMU.SetPWCInjector(nil)
	}
	if m.L3 != nil {
		m.L3.SetBelow(m.DRAM)
	}
	for i := range m.coreL3 {
		m.coreL3[i].SetBelow(m.coreDRAM[i])
	}
	m.cacheFaultPorts, m.dramFaultPorts = nil, nil
	if targets == 0 || !cfg.Enabled() {
		return
	}
	for _, c := range m.Cores {
		if targets&memsys.TargetTLB != 0 {
			c.MMU.SetTLBInjector(memsys.NewInjector(cfg))
		}
		if targets&memsys.TargetPWC != 0 {
			c.MMU.SetPWCInjector(memsys.NewInjector(cfg))
		}
		if targets&memsys.TargetCache != 0 {
			fp := memsys.NewFaultPort(c.Hier, memsys.NewInjector(cfg))
			c.Mem = fp
			c.MMU.SetPort(fp)
			m.cacheFaultPorts = append(m.cacheFaultPorts, fp)
		}
	}
	if targets&memsys.TargetDRAM != 0 {
		if m.L3 != nil {
			fp := memsys.NewFaultPort(m.DRAM, memsys.NewInjector(cfg))
			m.L3.SetBelow(fp)
			m.dramFaultPorts = append(m.dramFaultPorts, fp)
		}
		for i := range m.coreL3 {
			fp := memsys.NewFaultPort(m.coreDRAM[i], memsys.NewInjector(cfg))
			m.coreL3[i].SetBelow(fp)
			m.dramFaultPorts = append(m.dramFaultPorts, fp)
		}
	}
}

// MemInjected returns the lifetime count of memory-system faults injected
// across all seams (TLB, PWC, cache, DRAM). Unlike device stats it is not
// reset at the warm-up boundary.
func (m *Machine) MemInjected() uint64 {
	var t uint64
	for _, c := range m.Cores {
		t += c.MMU.InjectedMemFaults()
	}
	for _, fp := range m.cacheFaultPorts {
		t += fp.Injected()
	}
	for _, fp := range m.dramFaultPorts {
		t += fp.Injected()
	}
	return t
}

// MachineHooks implementation: the kernel's reach into the hardware.

// ShootdownVA invalidates every TLB entry for va on all cores.
func (m *Machine) ShootdownVA(va memdefs.VAddr) {
	for _, c := range m.Cores {
		c.MMU.InvalidateVA(va)
	}
}

// ShootdownSharedVA invalidates the shared (O==0) entries for va.
func (m *Machine) ShootdownSharedVA(va memdefs.VAddr, ccid memdefs.CCID) {
	for _, c := range m.Cores {
		c.MMU.InvalidateSharedVA(va, ccid)
	}
}

// InvalidatePWC drops a stale cached table entry on all cores.
func (m *Machine) InvalidatePWC(lvl memdefs.Level, entryAddr memdefs.PAddr) {
	for _, c := range m.Cores {
		c.MMU.InvalidatePWCEntry(lvl, entryAddr)
	}
}

// FlushProcess removes one process's TLB entries on all cores.
func (m *Machine) FlushProcess(pcid memdefs.PCID) {
	for _, c := range m.Cores {
		c.MMU.FlushPCID(pcid)
	}
}

// NumCores reports the core count.
func (m *Machine) NumCores() int { return len(m.Cores) }

var _ kernel.MachineHooks = (*Machine)(nil)

// AddTask schedules a process+generator on a core's run queue.
func (m *Machine) AddTask(coreID int, proc *kernel.Process, gen Generator) *Task {
	t := &Task{
		Proc: proc,
		Gen:  gen,
	}
	t.syncGen()
	t.ctx = mmu.Ctx{
		PID:      proc.PID,
		PCID:     proc.PCID,
		CCID:     proc.CCID,
		Tables:   proc.Tables,
		SharedVA: proc.SharedVAFunc(),
		PCBit:    proc.PCBitFunc(),
		PCMask:   proc.PCMaskFunc(),
	}
	c := m.Cores[coreID%len(m.Cores)]
	c.tasks = append(c.tasks, t)
	return t
}

// Ctx exposes the task's MMU translation context (tests and benches
// drive Translate directly with it).
func (t *Task) Ctx() *mmu.Ctx { return &t.ctx }

// MeanOwn returns the task's mean own cycles per request window — the
// execution time of run-to-completion work (compute ops, FaaS
// functions), free of multiplexing dilution — and whether any request
// was recorded since the last ResetStats.
func (t *Task) MeanOwn() (float64, bool) {
	if t.OwnReqs == 0 {
		return 0, false
	}
	return float64(t.OwnCycles) / float64(t.OwnReqs), true
}

// syncGen (re-)derives the batching state from the task's current
// generator. Generators are pointer-shaped, so a plain identity check
// detects a swapped Gen; swapping discards any unconsumed buffered steps
// of the old generator, matching the step-at-a-time behaviour where a
// swap takes effect on the very next pull.
func (t *Task) syncGen() {
	if t.Gen == t.boundGen {
		return
	}
	t.boundGen = t.Gen
	t.bgen = nil
	t.bpos, t.blen = 0, 0
	t.genMutates = false
	t.starver = nil
	if bg, ok := t.Gen.(BatchGenerator); ok {
		t.bgen = bg
		if t.batch == nil {
			t.batch = make([]Step, batchSteps)
		}
	}
	if km, ok := t.Gen.(KernelMutator); ok {
		t.genMutates = km.MutatesKernel()
	}
	t.starver, _ = t.Gen.(Starver)
}

// starved reports whether the task's generator is parked waiting for
// admitted work (see Starver). Never true for ordinary generators.
func (t *Task) starved() bool {
	return t.starver != nil && t.starver.Starved()
}

// runnable reports whether the scheduler should give the task core time:
// not finished, and either holding unconsumed buffered steps or backed
// by a generator that is not starved. With no Starver in play this is
// exactly !Done, so legacy schedules are untouched.
func (t *Task) runnable() bool {
	if t.Done {
		return false
	}
	t.syncGen()
	if t.bgen != nil && t.bpos < t.blen {
		return true
	}
	return !t.starved()
}

// nextStep pulls the task's next step — through the batch carry buffer
// when the generator batches, via Gen.Next into scratch otherwise. A nil
// return means the stream is complete. Unconsumed buffered steps persist
// across quantum boundaries, so both paths execute the same steps in the
// same order.
func (t *Task) nextStep(scratch *Step) *Step {
	t.syncGen()
	if t.bgen != nil {
		if t.bpos == t.blen {
			t.blen = t.bgen.NextBatch(t.batch)
			t.bpos = 0
			if t.blen == 0 {
				return nil
			}
		}
		s := &t.batch[t.bpos]
		t.bpos++
		return s
	}
	if !t.Gen.Next(scratch) {
		return nil
	}
	return scratch
}

// runnableTasks reports whether the core has tasks worth scheduling —
// unfinished and not starved. Run loops gate on this so a fleet epoch
// ends once every admitted request has drained, instead of spinning
// empty quanta against parked gates.
func (c *Core) runnableTasks() bool {
	for _, t := range c.tasks {
		if t.runnable() {
			return true
		}
	}
	return false
}

// stepOnce executes one step of a hardware thread on sc's core:
// request-boundary latency recording, think-time charging (at thinkDiv:
// 10 for a dedicated core's 0.5 CPI, 5 for an SMT thread sharing the
// issue width), translation, the memory access through the core's port
// and latency accounting. It returns the translation error, if any, for
// the caller to route through the OOM killer. A non-nil infoPtr turns
// observation on (the MMU skips the per-access Info bookkeeping copy
// otherwise).
func (m *Machine) stepOnce(sc *shardCore, t *Task, step *Step, infoPtr *mmu.Info, thinkDiv memdefs.Cycles) error {
	c := sc.c
	switch step.Req {
	case ReqStart:
		t.reqStart = c.Cycles
		t.reqStartOwn = t.Cycles
		t.inReq = true
	case ReqEnd:
		if t.inReq {
			t.Lat.Add(uint64(c.Cycles - t.reqStart))
			t.OwnReqs++
			t.OwnCycles += t.Cycles - t.reqStartOwn
			t.inReq = false
		}
	}
	think := memdefs.Cycles(step.Think*m.Params.CPITenths) / thinkDiv
	c.Cycles += think

	ppn, tc, err := c.MMU.TranslateInto(&t.ctx, step.VA, step.Write, step.Kind, infoPtr)
	if err != nil {
		if errors.Is(err, errShardDefer) {
			// The step will be retried after the barrier services the
			// fault: roll back its think charge so the retry is the only
			// attempt that counts.
			c.Cycles -= think
		}
		return err
	}
	if infoPtr != nil {
		m.observeTranslation(sc, t, step, tc, infoPtr)
	}
	pa := ppn.Addr() + memdefs.PAddr(memdefs.PageOffset(step.VA))
	dlat, _ := c.Mem.Access(pa, step.Kind, step.Write)
	c.Cycles += tc + dlat
	t.Cycles += think + tc + dlat
	t.Instrs += uint64(step.Think) + 1
	return nil
}

// oomKill handles a translation failure caused by memory exhaustion: the
// faulting task on sc's core is terminated OOM-killer style — marked
// done, its process exited so its memory returns to the pool — and the
// run continues. Returns false for non-OOM errors, which still abort the
// run.
func (m *Machine) oomKill(sc *shardCore, t *Task, err error) bool {
	if !errors.Is(err, physmem.ErrOutOfMemory) {
		return false
	}
	t.Done = true
	t.OOMKilled = true
	m.oomKills++
	if m.obsRec != nil {
		sc.spans = append(sc.spans, obs.Span{
			Parent: sc.span, Kind: obs.KEvent, Name: "oomkill",
			Node: m.obsNode, Core: sc.c.ID, Task: -1, PID: int(t.Proc.PID),
			Start: uint64(sc.c.Cycles),
		})
	}
	t.Proc.Exit()
	return true
}

// OOMKills reports how many tasks the OOM killer has terminated.
func (m *Machine) OOMKills() uint64 { return m.oomKills }

// KillTask terminates a task from outside the scheduler — the fleet
// layer's shed/fence/admission-rollback paths. The task is marked done
// and its process exited, so its frames return to the pool and its
// translations are flushed on every core. Idempotent; safe between Run
// calls (never from inside a running quantum).
func (m *Machine) KillTask(t *Task) {
	t.Done = true
	if !t.Proc.Dead() {
		t.Proc.Exit()
	}
}

// RunTaskOnly executes a single task to completion, giving it dedicated
// quanta on its core (used to time container bring-up in isolation).
func (m *Machine) RunTaskOnly(t *Task) error {
	var core *Core
	for _, c := range m.Cores {
		for _, ct := range c.tasks {
			if ct == t {
				core = c
				break
			}
		}
	}
	if core == nil {
		return fmt.Errorf("sim: task not scheduled on any core")
	}
	m.eng.only = t
	defer func() { m.eng.only = nil }()
	return m.eng.run(func(sc *shardCore) bool { return sc.c == core && t.runnable() }, false)
}

// Run executes until every core has run at least instrBudget instructions
// since this call (cores whose tasks all finish stop earlier). Cores are
// interleaved one quantum at a time.
func (m *Machine) Run(instrBudget uint64) error {
	start := make([]uint64, len(m.Cores))
	for i, c := range m.Cores {
		start[i] = c.Instrs
	}
	return m.eng.run(func(sc *shardCore) bool {
		c := sc.c
		return c.runnableTasks() && c.Instrs-start[c.ID] < instrBudget
	}, true)
}

// RunToCompletion executes until every task on every core has finished
// (or, for tasks behind starved admission gates, drained everything
// admitted so far).
func (m *Machine) RunToCompletion() error {
	return m.eng.run(func(sc *shardCore) bool { return sc.c.runnableTasks() }, false)
}

// ResetStats zeroes all hardware and kernel counters and per-task
// accounting — the warm-up/measurement boundary. Hardware counters are
// reset through the memsys device layer; injector sequence state is
// deliberately untouched (the fault pattern spans the whole run).
func (m *Machine) ResetStats() {
	for _, g := range m.devGroups {
		for _, d := range g.devs {
			d.ResetStats()
		}
	}
	for _, c := range m.Cores {
		c.Instrs = 0
		c.Cycles = 0
		for _, t := range c.tasks {
			t.Instrs = 0
			t.Cycles = 0
			t.Lat.Reset()
			t.OwnReqs, t.OwnCycles = 0, 0
			t.inReq = false
		}
	}
	m.Kernel.ResetStats()
	m.Registry.ResetHistograms()
	if m.sampler != nil {
		m.sampler.Reset(0)
		m.sampleAt = m.sampler.Every()
	}
}

// Tasks returns every task on the machine.
func (m *Machine) Tasks() []*Task {
	n := 0
	for _, c := range m.Cores {
		n += len(c.tasks)
	}
	out := make([]*Task, 0, n)
	for _, c := range m.Cores {
		out = append(out, c.tasks...)
	}
	return out
}

// AggStats is the machine-wide roll-up of translation statistics.
type AggStats struct {
	Instrs     uint64
	Cycles     memdefs.Cycles
	L2TLBMissD uint64
	L2TLBMissI uint64
	L2TLBHitD  uint64
	L2TLBHitI  uint64
	L2SharedD  uint64
	L2SharedI  uint64
	Walks      uint64
	Faults     uint64
}

// Aggregate sums the per-core MMU statistics.
func (m *Machine) Aggregate() AggStats {
	var a AggStats
	for _, c := range m.Cores {
		s := c.MMU.Stats()
		a.Instrs += c.Instrs
		if c.Cycles > a.Cycles {
			a.Cycles = c.Cycles
		}
		a.L2TLBMissD += s.L2MissData
		a.L2TLBMissI += s.L2MissInstr
		a.L2TLBHitD += s.L2HitData
		a.L2TLBHitI += s.L2HitInstr
		a.L2SharedD += s.L2SharedData
		a.L2SharedI += s.L2SharedInstr
		a.Walks += s.Walks
		a.Faults += s.Faults
	}
	return a
}

// MPKIData returns machine-wide L2 TLB data MPKI.
func (a AggStats) MPKIData() float64 { return metrics.MPKI(a.L2TLBMissD, a.Instrs) }

// MPKIInstr returns machine-wide L2 TLB instruction MPKI.
func (a AggStats) MPKIInstr() float64 { return metrics.MPKI(a.L2TLBMissI, a.Instrs) }

// SharedHitFracD is the fraction of L2 TLB data hits on entries brought
// in by another process (Figure 10b).
func (a AggStats) SharedHitFracD() float64 {
	return metrics.Ratio(float64(a.L2SharedD), float64(a.L2TLBHitD))
}

// SharedHitFracI is the instruction-side shared-hit fraction.
func (a AggStats) SharedHitFracI() float64 {
	return metrics.Ratio(float64(a.L2SharedI), float64(a.L2TLBHitI))
}
