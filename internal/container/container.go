// Package container models the Docker-style container engine the paper
// runs on (Docker 17.06): containers are created by forking from a
// pre-created image template, pay fixed engine overheads (daemon work,
// namespace and cgroup setup — the paper notes "most of the remaining
// overheads in bring-up are due to the runtime of the Docker engine and
// the interaction with the kernel"), and then execute a bring-up sequence
// that touches the runtime's code and data pages before the workload
// starts.
package container

import (
	"fmt"

	"babelfish/internal/memdefs"
	"babelfish/internal/sim"
	"babelfish/internal/workloads"
)

// EngineCosts are the fixed, architecture-independent engine overheads in
// cycles (2 GHz). They dominate bring-up, which is why the paper's
// bring-up gain (8%) is smaller than its fault-count reduction.
type EngineCosts struct {
	DaemonWork     memdefs.Cycles // image resolution, API, graph driver
	NamespaceSetup memdefs.Cycles
	CgroupSetup    memdefs.Cycles
	NetworkSetup   memdefs.Cycles
}

// DefaultEngineCosts calibrates `docker start` to the ~100ms-class times
// of Docker 17.06, scaled to the simulator's shortened runs.
func DefaultEngineCosts() EngineCosts {
	return EngineCosts{
		DaemonWork:     28_000_000,
		NamespaceSetup: 3_000_000,
		CgroupSetup:    2_000_000,
		NetworkSetup:   7_000_000,
	}
}

// Total sums the fixed overheads.
func (e EngineCosts) Total() memdefs.Cycles {
	return e.DaemonWork + e.NamespaceSetup + e.CgroupSetup + e.NetworkSetup
}

// State tracks the container lifecycle.
type State int

const (
	Created State = iota
	Running
	Exited
)

func (s State) String() string {
	switch s {
	case Created:
		return "created"
	case Running:
		return "running"
	case Exited:
		return "exited"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Container is one started container.
type Container struct {
	Name  string
	Task  *sim.Task
	State State

	// Bring-up time decomposition, in cycles.
	EngineCycles  memdefs.Cycles
	ForkCycles    memdefs.Cycles
	BringUpCycles memdefs.Cycles
}

// TotalBringUp is the `docker start` latency.
func (c *Container) TotalBringUp() memdefs.Cycles {
	return c.EngineCycles + c.ForkCycles + c.BringUpCycles
}

// Engine starts containers on a machine.
type Engine struct {
	M     *sim.Machine
	Costs EngineCosts
}

// NewEngine creates an engine with default costs.
func NewEngine(m *sim.Machine) *Engine {
	return &Engine{M: m, Costs: DefaultEngineCosts()}
}

// Start performs `docker start` for a new container of the deployment:
// engine overheads, fork from the image template, and the measured
// bring-up page-touch sequence. The container is left scheduled on the
// core with its workload generator, ready to run.
func (e *Engine) Start(d *workloads.Deployment, coreID int, seed uint64) (*Container, error) {
	task, forkCycles, err := d.Spawn(coreID, seed)
	if err != nil {
		return nil, err
	}
	proc := d.Containers[len(d.Containers)-1]
	c := &Container{
		Name:         proc.Name,
		Task:         task,
		State:        Created,
		EngineCycles: e.Costs.Total(),
		ForkCycles:   forkCycles,
	}

	// Run the bring-up sequence in isolation, timing it via the
	// generator's request mark.
	workGen := task.Gen
	task.Gen = workloads.NewBringUp(d, proc, seed)
	if err := e.M.RunTaskOnly(task); err != nil {
		return nil, err
	}
	c.BringUpCycles = memdefs.Cycles(task.Lat.Max())
	// Hand the task back to the workload.
	task.Gen = workGen
	task.Done = false
	task.Lat.Reset()
	c.State = Running
	return c, nil
}

// Stop exits the container's process and releases its address space.
func (e *Engine) Stop(d *workloads.Deployment, c *Container) {
	if c.State == Exited {
		return
	}
	c.Task.Done = true
	c.State = Exited
	for _, p := range d.Containers {
		if p.PID == c.Task.Proc.PID {
			p.Exit()
			break
		}
	}
}
