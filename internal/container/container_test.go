package container

import (
	"testing"

	"babelfish/internal/kernel"
	"babelfish/internal/sim"
	"babelfish/internal/workloads"
)

func deploy(t *testing.T, mode kernel.Mode) (*sim.Machine, *workloads.Deployment, *Engine) {
	t.Helper()
	p := sim.DefaultParams(mode)
	p.Cores = 1
	p.MemBytes = 512 << 20
	p.Quantum = 100_000
	m := sim.New(p)
	d, err := workloads.Deploy(m, workloads.HTTPd(), 0.25, 5)
	if err != nil {
		t.Fatal(err)
	}
	return m, d, NewEngine(m)
}

func TestStartLifecycle(t *testing.T) {
	_, d, e := deploy(t, kernel.ModeBaseline)
	c, err := e.Start(d, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.State != Running {
		t.Fatalf("state = %v", c.State)
	}
	if c.EngineCycles != EngineCost {
		t.Fatalf("engine cycles %d != %d", c.EngineCycles, EngineCost)
	}
	if c.ForkCycles == 0 || c.BringUpCycles == 0 {
		t.Fatalf("bring-up decomposition empty: fork=%d touch=%d", c.ForkCycles, c.BringUpCycles)
	}
	if c.TotalBringUp() != c.EngineCycles+c.ForkCycles+c.BringUpCycles {
		t.Fatal("TotalBringUp inconsistent")
	}
	// The task is handed back to the workload generator, ready to run.
	if c.Task.Done {
		t.Fatal("task left finished after bring-up")
	}
	if c.Task.Lat.Count() != 0 {
		t.Fatal("bring-up latency leaked into the workload histogram")
	}
	e.Stop(d, c)
	if c.State != Exited || !c.Task.Proc.Dead() {
		t.Fatal("stop did not exit the container")
	}
	e.Stop(d, c) // idempotent
}

func TestBabelFishBringUpFaster(t *testing.T) {
	_, dBase, eBase := deploy(t, kernel.ModeBaseline)
	_, dBF, eBF := deploy(t, kernel.ModeBabelFish)

	// Warm both groups with one container started and run briefly so the
	// page cache and (for BabelFish) shared tables are populated.
	warm := func(e *Engine, d *workloads.Deployment) *Container {
		c, err := e.Start(d, 0, 9)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	warm(eBase, dBase)
	warm(eBF, dBF)

	cBase, err := eBase.Start(dBase, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	cBF, err := eBF.Start(dBF, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if cBF.BringUpCycles >= cBase.BringUpCycles {
		t.Fatalf("BabelFish bring-up page-touch %d not below baseline %d",
			cBF.BringUpCycles, cBase.BringUpCycles)
	}
	if cBF.TotalBringUp() >= cBase.TotalBringUp() {
		t.Fatalf("BabelFish docker start %d not below baseline %d",
			cBF.TotalBringUp(), cBase.TotalBringUp())
	}
}

func TestStateString(t *testing.T) {
	if Created.String() != "created" || Running.String() != "running" || Exited.String() != "exited" {
		t.Fatal("state strings wrong")
	}
}

func TestMultipleContainersPerEngine(t *testing.T) {
	_, d, e := deploy(t, kernel.ModeBabelFish)
	var prev *Container
	for i := 0; i < 3; i++ {
		c, err := e.Start(d, 0, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && c.TotalBringUp() > prev.TotalBringUp() {
			// Later containers must not get slower: shared tables and a
			// warm page cache only help.
			t.Fatalf("container %d bring-up %d > predecessor %d",
				i, c.TotalBringUp(), prev.TotalBringUp())
		}
		prev = c
	}
}
