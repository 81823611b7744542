package workloads

import (
	"fmt"

	"babelfish/internal/kernel"
	"babelfish/internal/memdefs"
	"babelfish/internal/sim"
)

// FaaSGroup is the paper's serverless deployment: one CCID group holding
// several *different* functions that share the OpenFaaS runtime image
// (infrastructure + common libraries), each function with its own small
// binary, input data and private state. The paper runs three functions
// per core and finds ~90% of the shareable pte_ts are infrastructure
// pages shared across the functions.
type FaaSGroup struct {
	M     *sim.Machine
	Group *kernel.Group

	Infra *kernel.File
	Libs  *kernel.File
	Input *kernel.File // one input dataset shared by the three functions
	// ("the three containers access different data, but
	// there is partial overlap in the data pages accessed")

	RInfra, RLibs, RInput kernel.Region

	Template *kernel.Process

	fns []*faasFn // in faasFunctions order
	fp  Footprint // scaled
	seq int

	Tasks []*sim.Task
}

type faasFn struct {
	behavior FuncBehavior
	bin      *kernel.File
	rBin     kernel.Region
	rBinData kernel.Region
	rPrivate kernel.Region
	rScratch kernel.Region
}

// DeployFaaS sets up the runtime image and registers the three functions
// (Parse, Hash, Marshal), in dense or sparse variants.
func DeployFaaS(m *sim.Machine, sparse bool, scale float64, seed uint64) (*FaaSGroup, error) {
	if scale <= 0 {
		scale = 1
	}
	fp := faasFootprint().scaled(scale)
	k := m.Kernel
	g := k.NewGroup("faas", seed)
	fg := &FaaSGroup{M: m, Group: g, fp: fp}

	var err error
	if fg.Infra, err = k.CreateFile("faas/infra", fp.InfraPages); err != nil {
		return nil, err
	}
	if fg.Libs, err = k.CreateFile("faas/libs", fp.LibPages); err != nil {
		return nil, err
	}
	if fg.Input, err = k.CreateFile("faas/input", fp.DatasetPages); err != nil {
		return nil, err
	}
	if fg.RInfra, err = g.Region("infra", kernel.SegInfra, fp.InfraPages); err != nil {
		return nil, err
	}
	if fg.RLibs, err = g.Region("libs", kernel.SegLibs, fp.LibPages); err != nil {
		return nil, err
	}
	if fg.RInput, err = g.Region("input", kernel.SegMmap, fp.DatasetPages); err != nil {
		return nil, err
	}

	for _, b := range faasFunctions {
		fn := &faasFn{behavior: sparseVariant(b, fp.DatasetPages, sparse)}
		if fn.bin, err = k.CreateFile("faas/"+b.Name+"/bin", fp.BinPages+fp.BinDataPages); err != nil {
			return nil, err
		}
		if fn.rBin, err = g.Region(b.Name+"/bin", kernel.SegText, fp.BinPages); err != nil {
			return nil, err
		}
		if fn.rBinData, err = g.Region(b.Name+"/bindata", kernel.SegData, fp.BinDataPages); err != nil {
			return nil, err
		}
		if fn.rPrivate, err = g.Region(b.Name+"/private", kernel.SegHeap, fp.PrivatePages); err != nil {
			return nil, err
		}
		if fn.rScratch, err = g.Region(b.Name+"/scratch", kernel.SegStack, fp.ScratchPages); err != nil {
			return nil, err
		}
		fg.fns = append(fg.fns, fn)
	}

	tmpl, err := k.CreateProcess(g, "faas-template")
	if err != nil {
		return nil, err
	}
	fg.Template = tmpl
	if err := fg.mapAll(tmpl); err != nil {
		return nil, err
	}

	files := []*kernel.File{fg.Infra, fg.Libs, fg.Input}
	for _, fn := range fg.fns {
		files = append(files, fn.bin)
	}
	for _, f := range files {
		if err := f.Prefault(); err != nil {
			return nil, err
		}
	}
	return fg, nil
}

// FunctionNames returns the function names in registration order.
func (fg *FaaSGroup) FunctionNames() []string {
	names := make([]string, len(fg.fns))
	for i, fn := range fg.fns {
		names[i] = fn.behavior.Name
	}
	return names
}

func (fg *FaaSGroup) mapAll(p *kernel.Process) error {
	if _, err := p.MapFile(fg.RInfra, fg.Infra, 0, permRX, true, "infra"); err != nil {
		return err
	}
	if _, err := p.MapFile(fg.RLibs, fg.Libs, 0, permRX, true, "libs"); err != nil {
		return err
	}
	if _, err := p.MapFile(fg.RInput, fg.Input, 0, permRO, true, "input"); err != nil {
		return err
	}
	for _, fn := range fg.fns {
		name := fn.behavior.Name
		if _, err := p.MapFile(fn.rBin, fn.bin, 0, permRX, true, name+"/bin"); err != nil {
			return err
		}
		if _, err := p.MapFile(fn.rBinData, fn.bin, fg.fp.BinPages, permRW, true, name+"/bindata"); err != nil {
			return err
		}
		if _, err := p.MapAnon(fn.rPrivate, permRW, name+"/private"); err != nil {
			return err
		}
		if _, err := p.MapAnon(fn.rScratch, permRW, name+"/scratch"); err != nil {
			return err
		}
	}
	return nil
}

func (fg *FaaSGroup) lookup(name string) (*faasFn, error) {
	for _, fn := range fg.fns {
		if fn.behavior.Name == name {
			return fn, nil
		}
	}
	return nil, fmt.Errorf("workloads: unknown function %q", name)
}

// Env builds the generator environment of one function container.
func (fg *FaaSGroup) Env(name string, p *kernel.Process) (Env, error) {
	fn, err := fg.lookup(name)
	if err != nil {
		return Env{}, err
	}
	return fg.env(fn, p), nil
}

func (fg *FaaSGroup) env(fn *faasFn, p *kernel.Process) Env {
	return Env{
		P:    p,
		RBin: fn.rBin, RLibs: fg.RLibs, RInfra: fg.RInfra, RBinData: fn.rBinData,
		RDataset: fg.RInput, RPrivate: fn.rPrivate, RScratch: fn.rScratch,
		DatasetFile: fg.Input, DatasetPerm: permRO, DatasetPrivate: true,
	}
}

// Spawn forks a function container from the runtime template and
// schedules it: its untimed bring-up, then the function's own work.
// Returns the task and the fork cycles.
func (fg *FaaSGroup) Spawn(name string, coreID int, seed uint64) (*sim.Task, memdefs.Cycles, error) {
	fn, err := fg.lookup(name)
	if err != nil {
		return nil, 0, err
	}
	fg.seq++
	c, forkCycles, err := fg.M.Kernel.Fork(fg.Template, fmt.Sprintf("%s-%d", name, fg.seq))
	if err != nil {
		return nil, 0, err
	}
	env := fg.env(fn, c)
	bu := NewBringUp(env, seed)
	bu.noMarks = true
	gen := NewChain(bu, newFuncGen(env, fn.behavior, seed))
	task := fg.M.AddTask(coreID, c, gen)
	fg.Tasks = append(fg.Tasks, task)
	return task, forkCycles, nil
}
