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

// EngineCost is `docker start`'s fixed, architecture-independent engine
// overhead in cycles (2 GHz), calibrated to the ~100ms-class times of
// Docker 17.06 scaled to the simulator's shortened runs: daemon work
// (image resolution, API, graph driver) 28M, namespace setup 3M, cgroup
// setup 2M and network setup 7M. It dominates bring-up, which is why
// the paper's bring-up gain (8%) is smaller than its fault-count
// reduction.
const EngineCost memdefs.Cycles = 40_000_000

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
	M *sim.Machine
}

// NewEngine creates an engine on the machine.
func NewEngine(m *sim.Machine) *Engine {
	return &Engine{M: m}
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
	touch, err := BringUp(e.M, task, d.Env(proc), seed)
	if err != nil {
		return nil, err
	}
	return &Container{
		Name:          proc.Name,
		Task:          task,
		State:         Running,
		EngineCycles:  EngineCost,
		ForkCycles:    forkCycles,
		BringUpCycles: touch,
	}, nil
}

// BringUp runs the bring-up page-touch sequence of a freshly forked
// container's task, whose generator environment is env, in isolation on
// m and returns its cycles, timed by the sequence's request mark. The
// task then gets its own generator back, not yet started.
func BringUp(m *sim.Machine, task *sim.Task, env workloads.Env, seed uint64) (memdefs.Cycles, error) {
	work := task.Gen
	task.Gen = workloads.NewBringUp(env, seed)
	if err := m.RunTaskOnly(task); err != nil {
		return 0, err
	}
	touch := memdefs.Cycles(task.Lat.Max())
	task.Gen = work
	task.Done = false
	task.Lat.Reset()
	return touch, nil
}

// Stop exits the container's process and releases its address space.
// The deployment is not consulted: the task already holds the process.
func (e *Engine) Stop(_ *workloads.Deployment, c *Container) {
	if c.State == Exited {
		return
	}
	c.State = Exited
	e.M.KillTask(c.Task)
}
