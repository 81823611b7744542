package sim

import (
	"testing"

	"babelfish/internal/kernel"
	"babelfish/internal/memdefs"
	"babelfish/internal/obs"
)

// seqGen touches a fixed list of group VAs round-robin; used to drive the
// machine without the workloads package (which would be an import cycle).
type seqGen struct {
	proc  *kernel.Process
	gvas  []memdefs.VAddr
	i     int
	limit int // total steps; 0 = unlimited
	emits int
	write bool
	req   bool // emit ReqStart/ReqEnd around each full sweep
}

func (g *seqGen) Next(s *Step) bool {
	if g.limit > 0 && g.emits >= g.limit {
		return false
	}
	gva := g.gvas[g.i%len(g.gvas)]
	s.VA = g.proc.ProcVA(gva)
	s.Write = g.write
	s.Kind = memdefs.AccessData
	s.Think = 4
	s.Req = ReqNone
	if g.req {
		switch g.i % len(g.gvas) {
		case 0:
			s.Req = ReqStart
		case len(g.gvas) - 1:
			s.Req = ReqEnd
		}
	}
	g.i++
	g.emits++
	return true
}

func testMachine(t *testing.T, mode kernel.Mode, cores int) *Machine {
	t.Helper()
	p := DefaultParams(mode)
	p.Cores = cores
	p.MemBytes = 256 << 20
	p.Quantum = 50_000
	return New(p)
}

// setupProc creates a process with one file-backed region and returns the
// region's page addresses.
func setupProc(t *testing.T, m *Machine, g *kernel.Group, pages int) (*kernel.Process, []memdefs.VAddr) {
	t.Helper()
	p, err := m.Kernel.CreateProcess(g, "p")
	if err != nil {
		t.Fatal(err)
	}
	f, ok := m.Kernel.LookupFile("data")
	if !ok {
		f = m.Kernel.MustCreateFile("data", pages)
	}
	r := g.MustRegion("data", kernel.SegMmap, pages)
	p.MustMapFile(r, f, 0, memdefs.PermRead|memdefs.PermUser, true, "data")
	var gvas []memdefs.VAddr
	for i := 0; i < pages; i++ {
		gvas = append(gvas, r.PageVA(i))
	}
	return p, gvas
}

func TestMachineRunsAndCounts(t *testing.T) {
	m := testMachine(t, kernel.ModeBaseline, 1)
	g := m.Kernel.NewGroup("app", 1)
	p, gvas := setupProc(t, m, g, 16)
	task := m.AddTask(0, p, &seqGen{proc: p, gvas: gvas, limit: 1000, req: true})
	if err := m.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	if !task.Done {
		t.Fatal("task not done")
	}
	if task.Instrs == 0 || task.Cycles == 0 {
		t.Fatalf("no progress recorded: %d instr %d cyc", task.Instrs, task.Cycles)
	}
	if task.Lat.Count() == 0 {
		t.Fatal("no request latencies recorded")
	}
	ag := m.Aggregate()
	if ag.Instrs != task.Instrs {
		t.Fatalf("aggregate instrs %d != task %d", ag.Instrs, task.Instrs)
	}
	if ag.Faults == 0 {
		t.Fatal("no faults: demand paging did not run")
	}
}

func TestRoundRobinFairness(t *testing.T) {
	m := testMachine(t, kernel.ModeBaseline, 1)
	g := m.Kernel.NewGroup("app", 1)
	p1, gvas := setupProc(t, m, g, 16)
	p2, _, err := m.Kernel.Fork(p1, "p2")
	if err != nil {
		t.Fatal(err)
	}
	t1 := m.AddTask(0, p1, &seqGen{proc: p1, gvas: gvas})
	t2 := m.AddTask(0, p2, &seqGen{proc: p2, gvas: gvas})
	if err := m.Run(200_000); err != nil {
		t.Fatal(err)
	}
	if t1.Instrs == 0 || t2.Instrs == 0 {
		t.Fatal("a task starved")
	}
	ratio := float64(t1.Instrs) / float64(t2.Instrs)
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("unfair scheduling: %d vs %d", t1.Instrs, t2.Instrs)
	}
}

func TestResetStatsBoundary(t *testing.T) {
	m := testMachine(t, kernel.ModeBaseline, 1)
	g := m.Kernel.NewGroup("app", 1)
	p, gvas := setupProc(t, m, g, 8)
	m.AddTask(0, p, &seqGen{proc: p, gvas: gvas})
	if err := m.Run(50_000); err != nil {
		t.Fatal(err)
	}
	m.ResetStats()
	ag := m.Aggregate()
	if ag.Instrs != 0 || ag.Walks != 0 || ag.Faults != 0 {
		t.Fatalf("stats survive reset: %+v", ag)
	}
	// And the machine keeps running after a reset.
	if err := m.Run(50_000); err != nil {
		t.Fatal(err)
	}
	if m.Aggregate().Instrs == 0 {
		t.Fatal("no progress after reset")
	}
}

func TestCrossContainerSharingEndToEnd(t *testing.T) {
	m := testMachine(t, kernel.ModeBabelFish, 1)
	g := m.Kernel.NewGroup("app", 1)
	p1, gvas := setupProc(t, m, g, 32)
	p2, _, err := m.Kernel.Fork(p1, "c2")
	if err != nil {
		t.Fatal(err)
	}
	m.AddTask(0, p1, &seqGen{proc: p1, gvas: gvas})
	m.AddTask(0, p2, &seqGen{proc: p2, gvas: gvas})
	if err := m.Run(300_000); err != nil {
		t.Fatal(err)
	}
	ag := m.Aggregate()
	if ag.L2SharedD == 0 {
		t.Fatal("no shared L2 TLB hits between containers")
	}
}

func TestRunTaskOnly(t *testing.T) {
	m := testMachine(t, kernel.ModeBaseline, 1)
	g := m.Kernel.NewGroup("app", 1)
	p1, gvas := setupProc(t, m, g, 8)
	p2, _, err := m.Kernel.Fork(p1, "p2")
	if err != nil {
		t.Fatal(err)
	}
	bg := m.AddTask(0, p1, &seqGen{proc: p1, gvas: gvas}) // unbounded
	solo := m.AddTask(0, p2, &seqGen{proc: p2, gvas: gvas, limit: 500})
	if err := m.RunTaskOnly(solo); err != nil {
		t.Fatal(err)
	}
	if !solo.Done {
		t.Fatal("solo task not finished")
	}
	if bg.Instrs != 0 {
		t.Fatal("RunTaskOnly ran other tasks")
	}
}

func TestSharedHitFractions(t *testing.T) {
	var a AggStats
	a.L2TLBHitD, a.L2SharedD = 100, 25
	a.L2TLBHitI, a.L2SharedI = 50, 10
	if a.SharedHitFracD() != 0.25 || a.SharedHitFracI() != 0.2 {
		t.Fatalf("fractions: %v %v", a.SharedHitFracD(), a.SharedHitFracI())
	}
	var zero AggStats
	if zero.SharedHitFracD() != 0 || zero.MPKIData() != 0 {
		t.Fatal("zero-value stats not safe")
	}
}

func TestSMTInterleavesAndShares(t *testing.T) {
	p := DefaultParams(kernel.ModeBabelFish)
	p.Cores = 1
	p.MemBytes = 256 << 20
	p.Quantum = 50_000
	p.SMT = true
	m := New(p)
	g := m.Kernel.NewGroup("app", 1)
	p1, gvas := setupProc(t, m, g, 32)
	p2, _, err := m.Kernel.Fork(p1, "p2")
	if err != nil {
		t.Fatal(err)
	}
	t1 := m.AddTask(0, p1, &seqGen{proc: p1, gvas: gvas})
	t2 := m.AddTask(0, p2, &seqGen{proc: p2, gvas: gvas})
	if err := m.Run(100_000); err != nil {
		t.Fatal(err)
	}
	if t1.Instrs == 0 || t2.Instrs == 0 {
		t.Fatal("an SMT sibling starved")
	}
	// The siblings share the L2 TLB within the quantum: shared hits must
	// appear (BabelFish mode, same pages).
	if m.Aggregate().L2SharedD == 0 {
		t.Fatal("no cross-thread TLB sharing under SMT")
	}
}

func TestSMTFallsBackWithOneTask(t *testing.T) {
	p := DefaultParams(kernel.ModeBaseline)
	p.Cores = 1
	p.MemBytes = 256 << 20
	p.Quantum = 50_000
	p.SMT = true
	m := New(p)
	g := m.Kernel.NewGroup("app", 1)
	p1, gvas := setupProc(t, m, g, 8)
	task := m.AddTask(0, p1, &seqGen{proc: p1, gvas: gvas, limit: 500})
	if err := m.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	if !task.Done {
		t.Fatal("single task did not finish under SMT")
	}
}

// TestTracerRecordsFaults verifies faults and quanta reach the span
// recorder.
func TestTracerRecordsFaults(t *testing.T) {
	m := testMachine(t, kernel.ModeBaseline, 1)
	rec := obs.NewRecorder(1, 0, 1<<16)
	m.EnableObs(rec, -1)
	g := m.Kernel.NewGroup("app", 2)
	p, gvas := setupProc(t, m, g, 16)
	m.AddTask(0, p, &seqGen{proc: p, gvas: gvas, limit: 64})
	if err := m.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	kinds := map[obs.Kind]int{}
	for _, s := range rec.Spans() {
		kinds[s.Kind]++
	}
	if kinds[obs.KFault] == 0 {
		t.Fatal("no fault spans recorded (demand paging must fault)")
	}
	if kinds[obs.KQuantum] == 0 {
		t.Fatalf("no quantum spans recorded: %v", kinds)
	}
}

// TestQuantumBounds: a task's uninterrupted slice never exceeds the
// quantum by more than one step's worth of latency.
func TestQuantumBounds(t *testing.T) {
	m := testMachine(t, kernel.ModeBaseline, 1)
	m.Params.Quantum = 10_000
	rec := obs.NewRecorder(1, 0, 1<<16)
	m.EnableObs(rec, -1)
	g := m.Kernel.NewGroup("app", 3)
	p1, gvas := setupProc(t, m, g, 8)
	p2, _, err := m.Kernel.Fork(p1, "p2")
	if err != nil {
		t.Fatal(err)
	}
	m.AddTask(0, p1, &seqGen{proc: p1, gvas: gvas})
	m.AddTask(0, p2, &seqGen{proc: p2, gvas: gvas})
	if err := m.Run(100_000); err != nil {
		t.Fatal(err)
	}
	if rec.Total() > uint64(rec.Len()) {
		t.Fatalf("span ring wrapped (%d of %d kept); raise its depth", rec.Len(), rec.Total())
	}
	// Between the starts of consecutive quanta at most quantum + slack
	// cycles may pass.
	var lastStart int64 = -1
	quanta := 0
	for _, s := range rec.Spans() {
		if s.Kind != obs.KQuantum {
			continue
		}
		quanta++
		if lastStart >= 0 {
			gap := int64(s.Start) - lastStart
			// One in-flight step may overshoot the quantum boundary; the
			// worst case is a major fault (40k cycles).
			if gap > int64(m.Params.Quantum)+50_000 {
				t.Fatalf("quantum gap %d cycles (quantum %d)", gap, m.Params.Quantum)
			}
		}
		lastStart = int64(s.Start)
	}
	if quanta < 2 {
		t.Fatalf("%d quanta recorded, want at least 2 to measure a gap", quanta)
	}
}
