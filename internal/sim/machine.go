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
	"babelfish/internal/trace"
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
// counts are fine mid-stream; zero means the stream is complete. The
// scheduler drains batching generators a request's worth at a time, so
// the inner loop pays one dynamic dispatch per slice instead of one per
// memory access.
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
// state (unmap/remap churn, like GraphChi's shard rotation). Sharded
// stepping serializes such generators' refills at the quantum barrier;
// generators without the marker (or reporting false) are assumed to be
// pure producers and are refilled inline on their core's goroutine.
type KernelMutator interface {
	MutatesKernel() bool
}

// Starver marks a generator that can run dry *temporarily*: when Starved
// reports true, a refill returning zero steps means "no work admitted
// right now", not end-of-stream, so the scheduler parks the task instead
// of marking it Done. The fleet's open-loop request gates
// (internal/workloads.RequestGate) use this to drain exactly the
// admitted requests each epoch. Starved must be deterministic in the
// generator's own state — the schedulers consult it on every refill that
// comes back empty, in both classic and sharded stepping.
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
	// SMT interleaves two runnable tasks on each core instruction-by-
	// instruction instead of time-slicing them — the paper's other
	// co-scheduling scenario ("either in SMT mode, or due to an
	// over-subscribed system"). The two hardware threads share the
	// core's TLBs, PWC and caches.
	SMT bool

	// CoreShards > 0 selects the sharded stepping mode: cores run their
	// quanta concurrently on up to CoreShards goroutines between
	// deterministic barriers, with kernel effects deferred to the barrier
	// and applied in core-ID order. Output is identical for any shard
	// count >= 1; 0 keeps the classic serial scheduler (the default).
	CoreShards int

	MMU    mmu.Config
	Kernel kernel.Config
	Hier   cache.HierarchyConfig
	L3     cache.Config
	DRAM   dram.Config
}

// DefaultParams returns Table I's machine for the given kernel mode, with
// the scheduling quantum scaled to simulation-friendly lengths.
func DefaultParams(mode kernel.Mode) Params {
	kcfg := kernel.DefaultConfig(mode)
	return Params{
		Cores:     8,
		MemBytes:  4 << 30, // scaled from 32GB together with the datasets
		Quantum:   2_000_000,
		CtxSwitch: 2000,
		CPITenths: 5,
		MMU: mmu.Config{
			BabelFish:       mode == kernel.ModeBabelFish,
			ASLRHW:          kcfg.ASLR == kernel.ASLRHW,
			ASLRXformCycles: 2,
		},
		Kernel: kcfg,
		Hier:   cache.DefaultHierarchyConfig(),
		L3:     cache.DefaultL3Config(),
		DRAM:   dram.DefaultConfig(),
	}
}

// ParamsForArch returns Table I's machine for a named registered
// translation architecture (see internal/xlatpolicy): the kernel runs in
// BabelFish page-table-sharing mode exactly when the policy asks for it,
// and every core's MMU resolves the policy's tag modes and extra lookup
// structures. Unknown names return an error listing the accepted set.
func ParamsForArch(name string) (Params, error) {
	a, ok := xlatpolicy.Get(name)
	if !ok {
		return Params{}, fmt.Errorf("sim: unknown architecture %q (have %s)",
			name, strings.Join(xlatpolicy.SortedNames(), ", "))
	}
	mode := kernel.ModeBaseline
	if a.SharedKernel() {
		mode = kernel.ModeBabelFish
	}
	p := DefaultParams(mode)
	p.MMU.Policy = a.Policy
	p.MMU.BabelFish = a.OPC()
	return p, nil
}

// Task is one schedulable process with its access generator.
type Task struct {
	Proc *kernel.Process
	Gen  Generator
	// Lat records request wall-clock latency (core cycles, including the
	// time other co-scheduled containers hold the core) — the client-
	// visible latency of data-serving requests.
	Lat *metrics.Histogram
	// LatOwn records the task's own cycles per request window — the
	// execution time of run-to-completion work (FaaS functions), free of
	// multiplexing dilution.
	LatOwn *metrics.Histogram

	ctx         mmu.Ctx
	Instrs      uint64
	Cycles      memdefs.Cycles
	reqStart    memdefs.Cycles
	reqStartOwn memdefs.Cycles
	inReq       bool
	Done        bool

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
	// KernelMutator) that producing steps mutates kernel state; sharded
	// stepping pushes such refills to the quantum barrier.
	genMutates bool
	// starver is the generator's Starver view, when it has one: an empty
	// refill from a starved generator parks the task instead of
	// finishing it (open-loop admission gating).
	starver Starver
	// OOMKilled marks a task terminated by the machine's OOM killer: an
	// allocation failed even after reclaim, so the process was exited (its
	// memory freed) instead of crashing the whole run.
	OOMKilled bool

	// FinishCycles is the core cycle count when the generator finished
	// (run-to-completion workloads).
	FinishCycles memdefs.Cycles
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
	// the classic build. A sharded build (Params.CoreShards > 0) gives
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
	shardEng *shardEngine

	// Tracer, when non-nil, records per-access translation events,
	// context switches and faults (see internal/trace). Enable with
	// EnableTracing.
	Tracer *trace.Ring

	// Registry is the machine's telemetry registry: every stat producer
	// is registered at construction via pull probes (see
	// internal/telemetry and telemetry.go in this package). Snapshots
	// work at any time; histogram and time-series collection start with
	// EnableTelemetry.
	Registry *telemetry.Registry

	telemetryOn         bool
	sampler             *telemetry.Sampler
	histXlat, histFault *telemetry.Hist

	// obsRec, when non-nil, records causal spans — one per scheduling
	// quantum, plus fault and OOM-kill children — into the machine's
	// obs recorder (see EnableObs and obs.go in this package). obsNode
	// labels the spans with the owning fleet node (-1 standalone);
	// obsSpan is the in-flight quantum's pre-minted span ID, the parent
	// for spans recorded from inside the quantum.
	obsRec      *obs.Recorder
	obsNode     int
	obsSpan     obs.SpanID
	lastOOMSpan obs.SpanID

	// Memoized Aggregate() for the derived xlat.* gauges: one registry
	// snapshot reads four of them, each of which would otherwise re-walk
	// every core's MMU stats (see aggregateCached).
	agg      AggStats
	aggKey   [2]uint64
	aggValid bool

	oomKills uint64

	// devGroups is the memsys device layer: every memory-system component
	// grouped by role, built once at construction. Telemetry registration
	// and the stats reset walk this list instead of hand-enumerating
	// concrete fields.
	devGroups []deviceGroup

	// Memory-system fault injection state (see SetMemInjector). A classic
	// build has at most one DRAM fault port; a sharded build has one per
	// core's private DRAM.
	cacheFaultPorts []*memsys.FaultPort
	dramFaultPorts  []*memsys.FaultPort
}

// deviceGroup is a set of same-shaped devices (one per core for private
// structures) registered under one telemetry prefix.
type deviceGroup struct {
	prefix string
	devs   []memsys.Device
}

// EnableTracing attaches an event ring holding up to n events.
func (m *Machine) EnableTracing(n int) *trace.Ring {
	m.Tracer = trace.NewRing(n)
	return m.Tracer
}

// New builds a machine.
func New(p Params) *Machine {
	mem := physmem.New(p.MemBytes)
	k := kernel.New(mem, p.Kernel)
	m := &Machine{Params: p, Mem: mem, Kernel: k}
	sharded := p.CoreShards > 0
	var sliceCfg cache.Config
	if sharded {
		m.shardEng = newShardEngine(m, p.CoreShards)
		sliceCfg = l3SliceConfig(p.L3, p.Cores)
	} else {
		m.DRAM = dram.New(p.DRAM)
		m.L3 = cache.New(p.L3, m.DRAM)
	}
	for i := 0; i < p.Cores; i++ {
		l3 := m.L3
		var os mmu.OS = k
		if sharded {
			d := dram.New(p.DRAM)
			l3 = cache.New(sliceCfg, d)
			m.coreDRAM = append(m.coreDRAM, d)
			m.coreL3 = append(m.coreL3, l3)
			os = &shardOS{eng: m.shardEng, core: i}
		}
		hier := cache.NewHierarchy(p.Hier, l3)
		core := &Core{ID: i, Hier: hier, Mem: hier}
		core.MMU = mmu.New(p.MMU, mem, hier, os)
		m.Cores = append(m.Cores, core)
	}
	if sharded {
		m.shardEng.attach(m.Cores)
	}
	k.Hooks = m
	m.buildDeviceGroups()
	m.registerMetrics()
	return m
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
	if m.shardEng != nil {
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

// Devices returns the machine's memory-system devices in registration
// order (for audits and diagnostics).
func (m *Machine) Devices() []memsys.Device {
	var out []memsys.Device
	for _, g := range m.devGroups {
		out = append(out, g.devs...)
	}
	return out
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
		Proc:   proc,
		Gen:    gen,
		Lat:    metrics.NewHistogram(),
		LatOwn: metrics.NewHistogram(),
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

// runQuantum executes one scheduling quantum of the current task and
// rotates to the next. Returns the instructions executed.
func (m *Machine) runQuantum(c *Core) (uint64, error) {
	n := len(c.tasks)
	if n == 0 {
		return 0, nil
	}
	// Pick the next runnable task.
	for i := 0; i < n; i++ {
		if c.tasks[c.cur].runnable() {
			break
		}
		c.cur = (c.cur + 1) % n
	}
	t := c.tasks[c.cur]
	if !t.runnable() {
		return 0, nil
	}
	if m.Params.SMT {
		// Pick a second runnable task as the sibling hardware thread.
		var t2 *Task
		for i := 1; i < n; i++ {
			cand := c.tasks[(c.cur+i)%n]
			if cand.runnable() {
				t2 = cand
				break
			}
		}
		if t2 != nil {
			instrs, err := m.runQuantumSMT(c, t, t2)
			c.cur = (c.cur + 1) % n
			return instrs, err
		}
	}
	instrs, err := m.runQuantumTask(c, t)
	c.cur = (c.cur + 1) % n
	return instrs, err
}

// stepOnce performs the per-step bookkeeping shared by both scheduler
// loops: request-boundary latency recording, think-time charging (at
// thinkDiv: 10 for a dedicated core's 0.5 CPI, 5 for an SMT thread
// sharing the issue width), translation, the memory access through the
// core's port, latency accounting and the sampler tick. It returns the
// translation error, if any, for the caller to route through the OOM
// killer. infoPtr is non-nil exactly when observe is true (the MMU skips
// the per-access Info bookkeeping copy otherwise).
func (m *Machine) stepOnce(c *Core, t *Task, step *Step, infoPtr *mmu.Info, observe bool, thinkDiv memdefs.Cycles) error {
	switch step.Req {
	case ReqStart:
		t.reqStart = c.Cycles
		t.reqStartOwn = t.Cycles
		t.inReq = true
	case ReqEnd:
		if t.inReq {
			t.Lat.AddCycles(c.Cycles - t.reqStart)
			t.LatOwn.AddCycles(t.Cycles - t.reqStartOwn)
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
	if observe {
		m.observeTranslation(c, t, step, tc, infoPtr)
	}
	pa := ppn.Addr() + memdefs.PAddr(memdefs.PageOffset(step.VA))
	dlat, _ := c.Mem.Access(pa, step.Kind, step.Write)
	c.Cycles += tc + dlat
	t.Cycles += think + tc + dlat
	t.Instrs += uint64(step.Think) + 1
	if m.sampler != nil {
		m.sampler.Tick(uint64(c.Cycles))
	}
	return nil
}

// runQuantumSMT runs two tasks as SMT siblings for one quantum: steps
// alternate between the threads, and every structure of the core (TLBs,
// PWC, caches) is shared between them, so one thread's fills are
// immediately visible to the other. Think time is charged at double CPI
// (each thread contributes half the issue width).
func (m *Machine) runQuantumSMT(c *Core, t1, t2 *Task) (uint64, error) {
	c.Cycles += m.Params.CtxSwitch
	qStart := c.Cycles
	if m.obsRec != nil {
		m.obsSpan = m.obsRec.NewID()
	}
	end := c.Cycles + m.Params.Quantum
	tasks := [2]*Task{t1, t2}
	var step Step
	var instrs uint64
	turn := 0
	observe := m.Tracer != nil || m.telemetryOn || m.obsRec != nil
	var tinfo mmu.Info
	infoPtr := &tinfo
	if !observe {
		infoPtr = nil
	}
	// stopped parks a thread whose starved generator ran dry mid-quantum
	// without finishing it; the sibling keeps the core for the remainder.
	var stopped [2]bool
	halted := func(i int) bool { return tasks[i].Done || stopped[i] }
	for c.Cycles < end {
		i := turn % 2
		turn++
		if halted(i) {
			i = turn % 2
			if halted(i) {
				break
			}
		}
		t := tasks[i]
		sp := t.nextStep(&step)
		if sp == nil {
			if t.starved() {
				stopped[i] = true
				continue
			}
			t.Done = true
			t.FinishCycles = c.Cycles
			continue
		}
		instrs += uint64(sp.Think) + 1
		if err := m.stepOnce(c, t, sp, infoPtr, observe, 5); err != nil {
			if m.oomKill(c, t, err) {
				continue
			}
			return instrs, fmt.Errorf("core %d pid %d (SMT): %w", c.ID, t.Proc.PID, err)
		}
	}
	c.Instrs += instrs
	if m.obsRec != nil {
		m.recordQuantum(c, int(t1.Proc.PID), fmt.Sprintf("smt sibling pid %d", t2.Proc.PID), qStart)
	}
	return instrs, nil
}

// runQuantumTask executes one quantum of a specific task on its core.
func (m *Machine) runQuantumTask(c *Core, t *Task) (uint64, error) {
	c.Cycles += m.Params.CtxSwitch
	if m.Tracer != nil {
		m.Tracer.Record(trace.Event{
			Kind: trace.EvSwitch, Core: uint8(c.ID), PID: t.Proc.PID, At: c.Cycles,
		})
	}
	qStart := c.Cycles
	if m.obsRec != nil {
		m.obsSpan = m.obsRec.NewID()
	}
	end := c.Cycles + m.Params.Quantum
	var step Step
	var instrs uint64
	observe := m.Tracer != nil || m.telemetryOn || m.obsRec != nil
	var tinfo mmu.Info
	infoPtr := &tinfo
	if !observe {
		infoPtr = nil
	}
	for c.Cycles < end {
		sp := t.nextStep(&step)
		if sp == nil {
			if t.starved() {
				break // parked, not finished: admitted work ran dry
			}
			t.Done = true
			t.FinishCycles = c.Cycles
			break
		}
		instrs += uint64(sp.Think) + 1
		if err := m.stepOnce(c, t, sp, infoPtr, observe, 10); err != nil {
			if m.oomKill(c, t, err) {
				break
			}
			return instrs, fmt.Errorf("core %d pid %d: %w", c.ID, t.Proc.PID, err)
		}
	}
	c.Instrs += instrs
	if m.obsRec != nil {
		m.recordQuantum(c, int(t.Proc.PID), "", qStart)
	}
	return instrs, nil
}

// oomKill handles a translation failure caused by memory exhaustion: the
// faulting task is terminated OOM-killer style — marked done, its process
// exited so its memory returns to the pool — and the run continues.
// Returns false for non-OOM errors, which still abort the run.
func (m *Machine) oomKill(c *Core, t *Task, err error) bool {
	if !errors.Is(err, physmem.ErrOutOfMemory) {
		return false
	}
	t.Done = true
	t.OOMKilled = true
	t.FinishCycles = c.Cycles
	m.oomKills++
	if m.obsRec != nil {
		m.lastOOMSpan = m.obsRec.Record(obs.Span{
			Parent: m.obsSpan, Kind: obs.KEvent, Name: "oomkill",
			Node: m.obsNode, Core: c.ID, Task: -1, PID: int(t.Proc.PID),
			Start: uint64(c.Cycles),
		})
	}
	if m.Tracer != nil {
		m.Tracer.Record(trace.Event{
			Kind: trace.EvFault, Core: uint8(c.ID), PID: t.Proc.PID, At: c.Cycles,
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
	if !t.Done {
		t.Done = true
		t.FinishCycles = t.Cycles
	}
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
	for t.runnable() {
		if _, err := m.runQuantumTask(core, t); err != nil {
			return err
		}
	}
	return nil
}

// useSharded reports whether runs should go through the sharded stepping
// engine: the machine was built with CoreShards > 0 and nothing forces
// the classic serial schedule. SMT quanta interleave two tasks step by
// step, and observation (tracer, telemetry sampler, obs recorder) hooks
// every access into shared structures — both fall back to classic
// scheduling, which is valid on a sharded build.
func (m *Machine) useSharded() bool {
	return m.shardEng != nil && !m.Params.SMT &&
		m.Tracer == nil && !m.telemetryOn && m.obsRec == nil
}

// Run executes until every core has run at least instrBudget instructions
// since this call (cores whose tasks all finish stop earlier). Cores are
// interleaved one quantum at a time.
func (m *Machine) Run(instrBudget uint64) error {
	if m.useSharded() {
		return m.shardEng.run(instrBudget, false)
	}
	start := make([]uint64, len(m.Cores))
	for i, c := range m.Cores {
		start[i] = c.Instrs
	}
	for {
		progress := false
		for i, c := range m.Cores {
			if !c.runnableTasks() || c.Instrs-start[i] >= instrBudget {
				continue
			}
			n, err := m.runQuantum(c)
			if err != nil {
				return err
			}
			if n > 0 {
				progress = true
			}
		}
		if !progress {
			return nil
		}
	}
}

// RunToCompletion executes until every task on every core has finished
// (or, for tasks behind starved admission gates, drained everything
// admitted so far).
func (m *Machine) RunToCompletion() error {
	if m.useSharded() {
		return m.shardEng.run(0, true)
	}
	for {
		progress := false
		for _, c := range m.Cores {
			if !c.runnableTasks() {
				continue
			}
			if _, err := m.runQuantum(c); err != nil {
				return err
			}
			progress = true
		}
		if !progress {
			return nil
		}
	}
}

// ResetStats zeroes all hardware and kernel counters and per-task
// accounting — the warm-up/measurement boundary. Hardware counters are
// reset through the memsys device layer; injector sequence state is
// deliberately untouched (the fault pattern spans the whole run).
func (m *Machine) ResetStats() {
	m.aggValid = false
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
			t.LatOwn.Reset()
			t.inReq = false
		}
	}
	m.Kernel.ResetStats()
	m.Registry.ResetHistograms()
	if m.sampler != nil {
		m.sampler.Reset(0)
	}
}

// Counters snapshots the machine's robustness counters: memory-pressure
// events and how they were absorbed. It is a thin view over the
// telemetry registry, so the robustness counters print and export
// through the same path as every performance counter. A non-nil error
// names the first metric missing from the registry (a refactor bug, not
// a runtime condition); the returned counters are still valid for every
// metric that was found.
func (m *Machine) Counters() (metrics.Counters, error) {
	var firstErr error
	v := func(name string) uint64 {
		f, ok := m.Registry.Value(name)
		if !ok {
			if firstErr == nil {
				firstErr = fmt.Errorf("sim: counter metric not registered: %s", name)
			}
			return 0
		}
		return uint64(f)
	}
	return metrics.Counters{
		OOMEvents:      v("kernel.oom_events"),
		ReclaimedPages: v("kernel.reclaimed_pages"),
		InjectedFaults: v("phys.injected_faults"),
		OOMKills:       v("sim.oom_kills"),
		KernelBugs:     v("sim.kernel_bugs"),
	}, firstErr
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
	FaultCyc   memdefs.Cycles
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
		a.FaultCyc += s.FaultCycles
	}
	return a
}

// aggregateCached returns Aggregate(), recomputing only when the
// machine's counters have moved since the previous call. The cache key is
// (instructions, translations) summed across cores — both monotone within
// a measurement interval — so the four xlat.* gauges of one registry
// snapshot share a single roll-up instead of walking every core's MMU
// stats four times.
func (m *Machine) aggregateCached() AggStats {
	var instrs, xlats uint64
	for _, c := range m.Cores {
		instrs += c.Instrs
		xlats += c.MMU.Stats().Translations
	}
	if m.aggValid && m.aggKey == [2]uint64{instrs, xlats} {
		return m.agg
	}
	m.agg = m.Aggregate()
	m.aggKey = [2]uint64{instrs, xlats}
	m.aggValid = true
	return m.agg
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
