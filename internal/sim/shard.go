// Machine stepping: one driver for every build. Run, RunToCompletion and
// RunTaskOnly all go through shardEngine.run, and every core's scheduling
// quantum has the same three parts: open (pick the task, and under
// Params.SMT its runnable sibling as a second hardware thread; charge
// the context switch), segment (the only step loop: alternate steps
// between live threads until the quantum ends, every thread has halted
// or the core needs the kernel or the sampler), close (count the
// instructions, hand the core's observations to the machine, rotate the
// run queue). Params.CoreShards alone chooses the executor:
//
//   - Serial (CoreShards == 0, and RunTaskOnly on any build): whole
//     quanta run core after core in core-ID order, each core's
//     eligibility checked at its turn, with page faults and generator
//     refills serviced inline by the kernel. A Run pass that executes
//     nothing ends the run.
//   - Parallel (CoreShards > 0): rounds of one quantum per eligible core,
//     the segments running concurrently on up to CoreShards goroutines
//     (internal/par) with every kernel effect deferred to a deterministic
//     barrier where it is applied in core-ID order. SMT cores take part
//     like any other: both hardware threads are state of their own core.
//
// Observation takes one path under both executors: each core observes
// into its own histograms and span buffer, which the engine merges and
// flushes in core-ID order, and a segment stops at the sampler's next
// boundary for the engine to take the sample (at once when serial; at a
// sample barrier that services no kernel request when parallel).
// Watching a run therefore changes nothing it computes.
//
// The parallel executor's determinism argument, in full:
//
//   - A round runs one quantum on every core with live tasks. Within a
//     round, cores alternate between parallel phases and kernel phases.
//   - During a parallel phase each core executes steps against frozen
//     kernel state. The only shared structures it touches are physical
//     page-table entries, and only in two ways: atomic reads (walks) and
//     atomic ORs of Accessed/Dirty bits — idempotent and commutative, so
//     the entry state at the next barrier is independent of
//     interleaving, and nothing read during a phase depends on whether a
//     sibling's OR has landed yet. Caches and DRAM are private: a
//     sharded build gives every core its own L3 way-slice and DRAM
//     instance (see l3SliceConfig).
//   - A core leaves the parallel phase when its quantum ends, its threads
//     have all halted, or the thread whose step is in flight needs the
//     kernel: a page fault (the shardOS seam records the fault and
//     unwinds the translation with errShardDefer) or a generator refill
//     that mutates kernel state (KernelMutator). It also stops at the
//     sampler's next boundary, which only the engine moves between
//     phases. Where it stops is therefore a pure function of its own
//     state plus the frozen kernel and sampler state — the same at any
//     shard width, including width 1.
//   - The phase barrier is par.Plan.Execute returning: every core has
//     stopped, all their memory effects are visible. Cores that stopped
//     for a sample are sampled in core-ID order and resume alone; once
//     every core has ended its quantum or parked on the kernel, the
//     pending kernel requests are serviced serially in core-ID order,
//     so kernel mutations (and the shootdowns they broadcast into other
//     cores' quiescent TLBs) happen in one deterministic order. A request, its
//     retried step and an OOM kill at the barrier all belong to the
//     thread whose step was in flight.
//   - A deferred fault unwinds the whole translation attempt (partial
//     cycles rolled back) and the step retries from scratch after the
//     barrier, with the serviced kernel cycles charged exactly once via
//     ChargeDeferredFault. The retry runs against the repaired tables,
//     like the serial executor's inline fault handling, just restarted
//     from the top.
//
// Every decision above is either per-core-deterministic or ordered by
// core ID, so suite output is byte-identical for any CoreShards >= 1.
// (It intentionally differs from CoreShards == 0, which runs the serial
// executor against one shared L3/DRAM.)
package sim

import (
	"errors"
	"fmt"

	"babelfish/internal/memdefs"
	"babelfish/internal/mmu"
	"babelfish/internal/obs"
	"babelfish/internal/par"
	"babelfish/internal/telemetry"
)

// errShardDefer unwinds a translation whose fault was recorded for
// barrier-time servicing instead of being handled inline.
var errShardDefer = errors.New("sim: fault deferred to quantum barrier")

// shardReqKind labels what a parked core is waiting on.
type shardReqKind int

const (
	reqNone shardReqKind = iota
	reqFault
	reqRefill
	reqSample // not the kernel: the sampler's boundary
)

// shardOS is the OS seam installed into every core's MMU. During a
// parallel phase it records the fault and returns errShardDefer; outside
// parallel phases (the serial executor, deployment prefaulting) it passes
// straight through to the kernel.
type shardOS struct {
	eng  *shardEngine
	core int
}

func (s *shardOS) HandleFault(pid memdefs.PID, va memdefs.VAddr, write bool, kind memdefs.AccessKind) (memdefs.Cycles, error) {
	if !s.eng.inParallel {
		return s.eng.m.Kernel.HandleFault(pid, va, write, kind)
	}
	sc := s.eng.cores[s.core]
	sc.req = reqFault
	sc.faultPID, sc.faultVA = pid, va
	sc.faultWrite, sc.faultKind = write, kind
	return 0, errShardDefer
}

// shardCore is one core's stepping state. During a parallel phase each
// is written only by its own segment goroutine; otherwise only by the
// engine.
type shardCore struct {
	c *Core

	// Per-quantum state, reset by open. th holds the quantum's hardware
	// threads: the picked task, then its SMT sibling (nil when
	// time-slicing). halted marks a thread that has left the core for the
	// rest of the quantum; an empty slot counts as halted. turn alternates
	// the threads, and cur is the thread whose step is in flight, the one
	// a pending step or parked request belongs to.
	th     [2]*Task
	halted [2]bool
	turn   int
	cur    int
	start  memdefs.Cycles
	end    memdefs.Cycles
	instrs uint64
	done   bool
	err    error

	// Parked request, consumed by the barrier.
	req        shardReqKind
	faultPID   memdefs.PID
	faultVA    memdefs.VAddr
	faultWrite bool
	faultKind  memdefs.AccessKind

	// pending is a step not yet counted that runs first when the segment
	// resumes, even past the quantum end: the retry of a step whose
	// translation deferred a fault (an inline fault also finishes the step
	// it started), or the first step of a barrier-serviced refill.
	pending *Step
	scratch Step
	info    mmu.Info

	// Observation, per core so that segments never share it. span is the
	// in-flight quantum's pre-minted span ID, the parent of the fault and
	// OOM-kill spans buffered in spans until the engine flushes them.
	// xlat and fault collect the histograms' observations until close
	// merges them into the registry's. foldN and foldCyc carry the faults
	// serviced at the barrier into the observation of the step that
	// retries them.
	span        obs.SpanID
	spans       []obs.Span
	xlat, fault telemetry.Hist
	foldN       int
	foldCyc     memdefs.Cycles
}

// shardEngine is the machine's stepping driver.
type shardEngine struct {
	m *Machine
	// inParallel is set exactly while a par.Plan of segments is
	// executing; the shardOS seam reads it to decide defer vs
	// pass-through. Toggled only between phases (never concurrently with
	// them), so the read is race-free.
	inParallel bool
	cores      []*shardCore
	// only pins every quantum to one task (RunTaskOnly): no pick, no
	// run-queue rotation, serial executor.
	only *Task
}

// parallel reports whether quanta go to the parallel executor: the build
// asked for core shards and no single task is being timed alone.
func (eng *shardEngine) parallel() bool {
	return eng.m.Params.CoreShards > 0 && eng.only == nil
}

// run steps the machine until no core is eligible. With stopIdle (Run's
// rule) the serial executor also stops after a pass that executed no
// instruction.
func (eng *shardEngine) run(eligible func(*shardCore) bool, stopIdle bool) error {
	if eng.parallel() {
		for {
			var active []*shardCore
			for _, sc := range eng.cores {
				if eligible(sc) {
					active = append(active, sc)
				}
			}
			if len(active) == 0 {
				return nil
			}
			if err := eng.round(active); err != nil {
				return err
			}
		}
	}
	for {
		ran, progress := false, false
		for _, sc := range eng.cores {
			if !eligible(sc) {
				continue
			}
			ran = true
			if !eng.open(sc) {
				continue
			}
			for !sc.done {
				if sc.segment(eng); sc.req == reqSample {
					eng.sample(sc)
				}
			}
			eng.close(sc)
			if sc.err != nil {
				return sc.err
			}
			progress = progress || sc.instrs > 0
		}
		if !ran || stopIdle && !progress {
			return nil
		}
	}
}

// round runs one scheduling quantum on every active core, cores in
// parallel, samples and kernel effects at the barriers.
func (eng *shardEngine) round(active []*shardCore) error {
	for _, sc := range active {
		eng.open(sc)
	}
	for {
		var plan par.Plan
		for _, sc := range active {
			if sc.done || sc.req != reqNone {
				continue
			}
			sc := sc
			plan.Add(fmt.Sprintf("core %d", sc.c.ID), func() error {
				sc.segment(eng)
				return nil
			})
		}
		if plan.Len() == 0 {
			// Kernel barrier: every core has ended its quantum or parked
			// on a kernel request. Apply the requests in core-ID order
			// (active is already ID-ordered).
			parked := false
			for _, sc := range active {
				if sc.req != reqNone {
					parked = true
					if err := eng.service(sc); err != nil {
						return err
					}
				}
				eng.flush(sc)
			}
			if !parked {
				break
			}
			continue
		}
		eng.inParallel = true
		err := plan.Execute(eng.m.Params.CoreShards)
		eng.inParallel = false
		if err != nil {
			return err
		}
		// Sample barrier: take the samples the cores stopped for, in
		// core-ID order. Only those cores run in the next phase; kernel
		// requests wait for the kernel barrier.
		for _, sc := range active {
			if sc.req == reqSample {
				eng.sample(sc)
			}
		}
	}
	for _, sc := range active {
		eng.close(sc)
		if sc.err != nil {
			return sc.err
		}
	}
	return nil
}

// open picks the core's next runnable task in run-queue rotation (and,
// under SMT, the next runnable one after it as the sibling thread),
// charges the context switch and opens the quantum. It reports false
// when nothing on the core is runnable; close then does not rotate.
func (eng *shardEngine) open(sc *shardCore) bool {
	m, c := eng.m, sc.c
	sc.th, sc.halted = [2]*Task{}, [2]bool{true, true}
	sc.turn, sc.cur, sc.instrs, sc.err = 0, 0, 0, nil
	sc.done, sc.req, sc.pending = true, reqNone, nil
	sc.foldN, sc.foldCyc = 0, 0
	t, n := eng.only, len(c.tasks)
	if t == nil && n > 0 {
		for i := 0; i < n; i++ {
			if c.tasks[c.cur].runnable() {
				break
			}
			c.cur = (c.cur + 1) % n
		}
		t = c.tasks[c.cur]
	}
	if t == nil || !t.runnable() {
		return false
	}
	sc.th[0], sc.halted[0] = t, false
	if m.Params.SMT && eng.only == nil {
		for i := 1; i < n; i++ {
			if cand := c.tasks[(c.cur+i)%n]; cand.runnable() {
				sc.th[1], sc.halted[1] = cand, false
				break
			}
		}
	}
	sc.done = false
	c.Cycles += m.Params.CtxSwitch
	sc.start = c.Cycles
	sc.end = c.Cycles + m.Params.Quantum
	if m.obsRec != nil {
		sc.span = m.obsRec.NewID()
	}
	return true
}

// close ends the core's quantum: it counts the instructions, merges the
// core's histograms, records its buffered spans and the quantum span, and
// rotates the run queue.
func (eng *shardEngine) close(sc *shardCore) {
	m, c := eng.m, sc.c
	if sc.th[0] == nil {
		return
	}
	c.Instrs += sc.instrs
	if m.telemetryOn { // Hist.Merge is exact
		m.histXlat.Merge(&sc.xlat)
		m.histFault.Merge(&sc.fault)
		sc.xlat.Reset()
		sc.fault.Reset()
	}
	if m.obsRec != nil {
		eng.flush(sc)
		m.recordQuantum(sc)
	}
	if n := len(c.tasks); n > 0 && eng.only == nil {
		c.cur = (c.cur + 1) % n
	}
	sc.th = [2]*Task{}
}

// segment runs the core's hardware threads from their current position
// until the quantum ends, every thread has halted, a kernel request parks
// the core, or the core's clock reaches the sampler's next boundary. In a
// parallel phase it executes on a pool goroutine, and everything it
// touches is core-private or (page-table entries) accessed atomically.
func (sc *shardCore) segment(eng *shardEngine) {
	m, c := eng.m, sc.c
	var info *mmu.Info
	if m.telemetryOn || m.obsRec != nil {
		info = &sc.info
	}
	// Think time costs CPITenths/10 cycles per instruction on a dedicated
	// core, and twice that on each of two SMT threads sharing the issue
	// width.
	smt := sc.th[1] != nil
	thinkDiv := memdefs.Cycles(10)
	if smt {
		thinkDiv = 5
	}
	t := sc.th[sc.cur]
	for sc.pending != nil || c.Cycles < sc.end {
		sp := sc.pending
		retry := sp != nil
		sc.pending = nil
		if sp == nil {
			// A lone thread skips the alternation: a pick on every step
			// slowed the time-sliced hot loop by about 5% (perfbench
			// serve-steady, 2-CPU x86-64 host).
			if smt {
				if t = sc.pick(); t == nil {
					break
				}
			} else if sc.halted[0] {
				break
			}
			if t.bpos < t.blen { // a buffered batch step: the hot path
				sp = &t.batch[t.bpos]
				t.bpos++
			} else if t.genMutates && eng.inParallel {
				sc.req = reqRefill
				return // park: barrier runs the kernel-mutating refill
			} else if sp = t.nextStep(&sc.scratch); sp == nil {
				sc.drained()
				continue
			}
			sc.instrs += uint64(sp.Think) + 1
		}
		if err := m.stepOnce(sc, t, sp, info, thinkDiv); err != nil {
			if errors.Is(err, errShardDefer) {
				if !retry {
					sc.instrs -= uint64(sp.Think) + 1
				}
				sc.pending = sp
				return // park: barrier services the fault, step retries
			}
			// The OOM killer mutates the kernel, so it runs inline only
			// outside parallel phases.
			if !eng.inParallel && m.oomKill(sc, t, err) {
				sc.halted[sc.cur] = true
				continue
			}
			sc.err = fmt.Errorf("core %d pid %d: %w", c.ID, t.Proc.PID, err)
			break
		}
		if retry {
			sc.instrs += uint64(sp.Think) + 1
		}
		if uint64(c.Cycles) >= m.sampleAt {
			sc.req = reqSample
			return // park: the engine takes the sample
		}
	}
	sc.done = true
}

// pick chooses the SMT thread for the next step: the threads alternate,
// and a halted thread leaves the core to its sibling. It returns nil when
// both have halted.
func (sc *shardCore) pick() *Task {
	i := sc.turn & 1
	sc.turn++
	if sc.halted[i] {
		i ^= 1
	}
	if sc.halted[i] {
		return nil
	}
	sc.cur = i
	return sc.th[i]
}

// drained halts the in-flight thread after an empty pull: a starved
// generator parks its task (admitted work ran dry), any other finishes
// it.
func (sc *shardCore) drained() {
	t := sc.th[sc.cur]
	t.Done = !t.starved()
	sc.halted[sc.cur] = true
}

// service applies one parked core's kernel request, on behalf of the
// thread whose step was in flight, at the barrier. The core's quantum
// ends there only if that leaves no live thread.
func (eng *shardEngine) service(sc *shardCore) error {
	m, t := eng.m, sc.th[sc.cur]
	switch sc.req {
	case reqFault:
		fc, err := m.Kernel.HandleFault(sc.faultPID, sc.faultVA, sc.faultWrite, sc.faultKind)
		// The MMU's fault counter takes the kernel's cycles even when the
		// fault fails, as on the inline path.
		sc.c.MMU.ChargeDeferredFault(fc, err)
		if err != nil {
			if !m.oomKill(sc, t, err) {
				return fmt.Errorf("core %d pid %d (sharded): %w", sc.c.ID, t.Proc.PID, err)
			}
			sc.pending = nil
			sc.halted[sc.cur] = true
			sc.foldN, sc.foldCyc = 0, 0
			break
		}
		// Charge the kernel service where the inline handler would have:
		// wall clock and the task's own time. The retried step observes
		// it as the inline handler's translation would have.
		sc.c.Cycles += fc
		t.Cycles += fc
		sc.foldN++
		sc.foldCyc += fc
	case reqRefill:
		// The refill's first step runs when the segment resumes. An empty
		// refill from a starved admission gate parks the task for the rest
		// of the quantum; from any other generator it finishes the task.
		if sc.pending = t.nextStep(&sc.scratch); sc.pending == nil {
			sc.drained()
		}
	}
	sc.req = reqNone
	sc.done = sc.halted[0] && sc.halted[1]
	return nil
}
