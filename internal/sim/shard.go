// Machine stepping: one driver for every build. Run, RunToCompletion and
// RunTaskOnly all go through shardEngine.run, and every core's scheduling
// quantum has the same three parts: open (pick the task, charge the
// context switch), segment (execute steps until the quantum ends, the
// task finishes or the core needs the kernel), close (count the
// instructions, rotate the run queue). Params.CoreShards chooses only the
// executor:
//
//   - Serial: whole quanta run core after core in core-ID order, each
//     core's eligibility checked at its turn, with page faults and
//     generator refills serviced inline by the kernel. A Run pass that
//     executes nothing ends the run. This is the executor of every
//     CoreShards == 0 build, and of any build that observes (telemetry,
//     obs spans), interleaves SMT threads, or times one task alone
//     (RunTaskOnly).
//   - Parallel (CoreShards > 0, no SMT, no observation): rounds of one
//     quantum per eligible core, the segments running concurrently on up
//     to CoreShards goroutines (internal/par) with every kernel effect
//     deferred to a deterministic barrier where it is applied in core-ID
//     order.
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
//   - A core leaves the parallel phase when its quantum ends, its task
//     finishes, or it needs the kernel: a page fault (the shardOS seam
//     records the fault and unwinds the translation with errShardDefer)
//     or a generator refill that mutates kernel state (KernelMutator).
//     Where it stops is therefore a pure function of its own state plus
//     the frozen kernel state — the same at any shard width, including
//     width 1.
//   - The phase barrier is par.Plan.Execute returning: every core has
//     stopped, all their memory effects are visible. Pending kernel
//     requests are then serviced serially in core-ID order, so kernel
//     mutations (and the shootdowns they broadcast into other cores'
//     quiescent TLBs) happen in one deterministic order.
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
	"babelfish/internal/par"
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

	// Per-quantum state, reset by open.
	t      *Task
	t2     *Task // SMT sibling thread, nil when time-slicing
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
// asked for core shards and nothing needs the serial one. SMT quanta
// interleave two tasks step by step, and observation (telemetry
// histograms and sampler, obs spans) hooks every access into shared
// structures.
func (eng *shardEngine) parallel() bool {
	m := eng.m
	return m.Params.CoreShards > 0 && !m.Params.SMT && !m.telemetryOn && m.obsRec == nil && eng.only == nil
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
			if sc.t2 != nil {
				sc.smt(eng.m)
			} else {
				sc.segment(eng)
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
// parallel, kernel effects at the barriers.
func (eng *shardEngine) round(active []*shardCore) error {
	for _, sc := range active {
		eng.open(sc)
	}
	for {
		var plan par.Plan
		for _, sc := range active {
			if sc.done {
				continue
			}
			sc := sc
			plan.Add(fmt.Sprintf("core %d", sc.c.ID), func() error {
				sc.segment(eng)
				return nil
			})
		}
		if plan.Len() == 0 {
			break
		}
		eng.inParallel = true
		err := plan.Execute(eng.m.Params.CoreShards)
		eng.inParallel = false
		if err != nil {
			return err
		}
		// Barrier: all segments have stopped; apply kernel effects in
		// core-ID order (active is already ID-ordered).
		for _, sc := range active {
			if !sc.done && sc.req != reqNone {
				if err := eng.service(sc); err != nil {
					return err
				}
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
	sc.t, sc.t2, sc.err = nil, nil, nil
	sc.instrs = 0
	sc.done = true
	sc.req = reqNone
	sc.pending = nil
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
	if m.Params.SMT && eng.only == nil {
		for i := 1; i < n; i++ {
			if cand := c.tasks[(c.cur+i)%n]; cand.runnable() {
				sc.t2 = cand
				break
			}
		}
	}
	sc.t = t
	sc.done = false
	c.Cycles += m.Params.CtxSwitch
	sc.start = c.Cycles
	sc.end = c.Cycles + m.Params.Quantum
	if m.obsRec != nil {
		m.obsSpan = m.obsRec.NewID()
	}
	return true
}

// close ends the core's quantum: it counts the instructions, records the
// quantum span, and rotates the run queue.
func (eng *shardEngine) close(sc *shardCore) {
	m, c := eng.m, sc.c
	if sc.t == nil {
		return
	}
	c.Instrs += sc.instrs
	if m.obsRec != nil {
		detail := ""
		if sc.t2 != nil {
			detail = fmt.Sprintf("smt sibling pid %d", sc.t2.Proc.PID)
		}
		m.recordQuantum(c, int(sc.t.Proc.PID), detail, sc.start)
	}
	if n := len(c.tasks); n > 0 && eng.only == nil {
		c.cur = (c.cur + 1) % n
	}
	sc.t, sc.t2 = nil, nil
}

// segment runs the core from its current position until the quantum
// ends, the task finishes, or a kernel request parks it. In a parallel
// phase it executes on a pool goroutine, and everything it touches is
// core-private or (page-table entries) accessed atomically.
func (sc *shardCore) segment(eng *shardEngine) {
	m := eng.m
	c, t := sc.c, sc.t
	sc.req = reqNone
	observe := m.telemetryOn || m.obsRec != nil
	var infoPtr *mmu.Info
	if observe {
		infoPtr = &sc.info
	}
	for sc.pending != nil || c.Cycles < sc.end {
		sp := sc.pending
		retry := sp != nil
		sc.pending = nil
		if sp == nil {
			if t.bpos < t.blen { // a buffered batch step: the hot path
				sp = &t.batch[t.bpos]
				t.bpos++
			} else if sp = sc.take(eng, t); sp == nil {
				if sc.req == reqRefill {
					return // park: barrier runs the mutating refill
				}
				// A starved generator parks the task (admitted work ran
				// dry); any other empty pull finishes it.
				t.Done = !t.starved()
				break
			}
			sc.instrs += uint64(sp.Think) + 1
		}
		if err := m.stepOnce(c, t, sp, infoPtr, observe, 10); err != nil {
			if errors.Is(err, errShardDefer) {
				if !retry {
					sc.instrs -= uint64(sp.Think) + 1
				}
				sc.pending = sp
				return // park: barrier services the fault, step retries
			}
			// The OOM killer mutates the kernel, so it runs inline only
			// outside parallel phases.
			if !eng.inParallel && m.oomKill(c, t, err) {
				break
			}
			sc.err = fmt.Errorf("core %d pid %d: %w", c.ID, t.Proc.PID, err)
			break
		}
		if retry {
			sc.instrs += uint64(sp.Think) + 1
		}
	}
	sc.done = true
}

// take pulls the task's next step through nextStep once its batch carry
// buffer is empty (segment takes buffered steps inline), except that a
// kernel-mutating refill during a parallel phase parks the core: nil with
// sc.req == reqRefill. Any other nil means the stream is complete (or
// starved).
func (sc *shardCore) take(eng *shardEngine, t *Task) *Step {
	if t.genMutates && eng.inParallel {
		sc.req = reqRefill
		return nil
	}
	return t.nextStep(&sc.scratch)
}

// smt runs the core's task and its sibling as SMT hardware threads for
// the quantum: steps alternate between the threads, and every structure
// of the core (TLBs, PWC, caches) is shared between them, so one
// thread's fills are immediately visible to the other. Think time is
// charged at double CPI (each thread contributes half the issue width).
// It runs only on the serial executor, with the kernel inline.
func (sc *shardCore) smt(m *Machine) {
	c := sc.c
	tasks := [2]*Task{sc.t, sc.t2}
	observe := m.telemetryOn || m.obsRec != nil
	var infoPtr *mmu.Info
	if observe {
		infoPtr = &sc.info
	}
	// stopped parks a thread whose starved generator ran dry mid-quantum
	// without finishing it; the sibling keeps the core for the remainder.
	var stopped [2]bool
	halted := func(i int) bool { return tasks[i].Done || stopped[i] }
	turn := 0
	for c.Cycles < sc.end {
		i := turn % 2
		turn++
		if halted(i) {
			i = turn % 2
			if halted(i) {
				break
			}
		}
		t := tasks[i]
		sp := t.nextStep(&sc.scratch)
		if sp == nil {
			stopped[i] = t.starved()
			t.Done = !stopped[i]
			continue
		}
		sc.instrs += uint64(sp.Think) + 1
		if err := m.stepOnce(c, t, sp, infoPtr, observe, 5); err != nil {
			if m.oomKill(c, t, err) {
				continue
			}
			sc.err = fmt.Errorf("core %d pid %d (SMT): %w", c.ID, t.Proc.PID, err)
			break
		}
	}
	sc.done = true
}

// service applies one parked core's kernel request at the barrier.
func (eng *shardEngine) service(sc *shardCore) error {
	m := eng.m
	switch sc.req {
	case reqFault:
		fc, err := m.Kernel.HandleFault(sc.faultPID, sc.faultVA, sc.faultWrite, sc.faultKind)
		if err != nil {
			if m.oomKill(sc.c, sc.t, err) {
				sc.pending = nil
				sc.done = true
				break
			}
			return fmt.Errorf("core %d pid %d (sharded): %w", sc.c.ID, sc.t.Proc.PID, err)
		}
		// Charge the kernel service where the inline handler would have:
		// wall clock, the task's own time, and the MMU's fault counters.
		sc.c.Cycles += fc
		sc.t.Cycles += fc
		sc.c.MMU.ChargeDeferredFault(fc)
	case reqRefill:
		// The refill's first step runs when the segment resumes. An empty
		// refill from a starved admission gate parks the task for the rest
		// of the quantum; from any other generator it finishes the task.
		if sc.pending = sc.t.nextStep(&sc.scratch); sc.pending == nil {
			sc.t.Done = !sc.t.starved()
			sc.done = true
		}
	}
	sc.req = reqNone
	return nil
}
