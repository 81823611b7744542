// Package babelfish is the public API of BabelFish-Go, a full-system
// architectural simulator reproducing "BabelFish: Fusing Address
// Translations for Containers" (Skarlatos et al., ISCA 2020).
//
// BabelFish shares address translations across the containers of one
// application (a CCID group) in two places:
//
//   - the L2 TLB, via a Container Context Identifier tag plus the
//     Ownership-PrivateCopy (O-PC) field that keeps copy-on-write pages
//     correct while everything else is fused; and
//   - the page tables, by letting processes point their PMD entries at a
//     common last-level (PTE) table, so a page's translation is created
//     once, faulted once, and cached once for the whole group.
//
// The package wires together the simulator's subsystems (TLBs, page walk
// caches, page tables, cache hierarchy, DRAM, a miniature kernel with
// fork/CoW/mmap, a container engine, and the paper's workloads) behind a
// small facade:
//
//	m := babelfish.NewMachine(babelfish.Options{Arch: babelfish.ArchBabelFish})
//	d, _ := babelfish.DeployApp(m, babelfish.MongoDB, 1.0, 42)
//	d.Spawn(0, 1)
//	d.Spawn(0, 2) // two containers co-located on core 0
//	m.Run(2_000_000)
//	fmt.Println(d.MeanLatency())
//
// The experiment runners that regenerate every table and figure of the
// paper live in Experiments (see also cmd/bfbench).
package babelfish

import (
	"fmt"

	"babelfish/internal/container"
	"babelfish/internal/experiments"
	"babelfish/internal/kernel"
	"babelfish/internal/memdefs"
	"babelfish/internal/sim"
	"babelfish/internal/workloads"
	"babelfish/internal/xlatpolicy"
)

// Arch selects the simulated architecture. The full architecture table —
// including the Victima and coalesced-TLB comparison points — is also
// reachable by name through NewMachineArch and ArchNames.
type Arch int

const (
	// ArchBaseline is a conventional server: per-process TLB entries and
	// private page tables.
	ArchBaseline Arch = iota
	// ArchBabelFish enables translation fusing in the L2 TLB and shared
	// page tables (the paper's proposal, with hardware ASLR).
	ArchBabelFish
	// ArchBabelFishSW is BabelFish with the software-only ASLR
	// configuration (one layout per container group; the L1 TLB may also
	// share entries).
	ArchBabelFishSW
	// ArchVictima parks TLB-miss PTEs in repurposed L2 cache lines
	// (Kanellopoulos et al., MICRO 2023) over a baseline kernel.
	ArchVictima
	// ArchCoalesced caches contiguous VPN→PPN runs as single TLB-side
	// entries (CoLT-style coalescing) over a baseline kernel.
	ArchCoalesced
	// ArchBabelFishVictima combines BabelFish sharing with CCID-tagged
	// parked PTEs.
	ArchBabelFishVictima
	// ArchBabelFishCoalesced combines BabelFish sharing with coalesced
	// runs of shared clean pages.
	ArchBabelFishCoalesced
)

// policyName maps the enum onto its xlatpolicy architecture name.
func (a Arch) policyName() string {
	switch a {
	case ArchBaseline:
		return "baseline"
	case ArchBabelFish, ArchBabelFishSW:
		return "babelfish"
	case ArchVictima:
		return "victima"
	case ArchCoalesced:
		return "coalesced"
	case ArchBabelFishVictima:
		return "babelfish+victima"
	case ArchBabelFishCoalesced:
		return "babelfish+coalesced"
	}
	panic(fmt.Sprintf("babelfish: unknown Arch(%d)", int(a)))
}

// String returns the architecture's xlatpolicy name; the software-ASLR
// variant is distinguished as "babelfish-sw".
func (a Arch) String() string {
	if a == ArchBabelFishSW {
		return "babelfish-sw"
	}
	return a.policyName()
}

// ArchNames returns the architecture names in xlatpolicy table
// order — the accepted NewMachineArch (and CLI -arch) values.
func ArchNames() []string { return xlatpolicy.Names() }

// Options configures a machine.
type Options struct {
	Arch  Arch
	Cores int    // default 8 (Table I)
	Mem   uint64 // physical memory bytes; default 4GB (scaled from 32GB)
	// Quantum is the scheduling timeslice in cycles; 0 picks the default.
	Quantum uint64
	// THP enables transparent huge pages (default on, as in the paper).
	DisableTHP bool
	// CoreShards > 0 steps the machine's cores concurrently on up to
	// CoreShards goroutines with a deterministic quantum barrier; output
	// is identical at any width >= 1 (see internal/sim/shard.go).
	CoreShards int
}

// Machine is a simulated 8-core server. It embeds *sim.Machine, whose
// methods (Run, RunToCompletion, ResetStats, Aggregate, ...) form the
// run-time API.
type Machine struct {
	*sim.Machine
}

// NewMachine builds a machine for the selected architecture.
func NewMachine(o Options) *Machine {
	m, err := NewMachineArch(o.Arch.policyName(), o)
	if err != nil {
		// Enum values always resolve; an error here is a table bug.
		panic(err)
	}
	return m
}

// NewMachineArch builds a machine for a named architecture
// (see ArchNames); the name takes precedence over o.Arch, except that
// ArchBabelFishSW still selects the software-ASLR kernel configuration.
// Unknown names return an error.
func NewMachineArch(name string, o Options) (*Machine, error) {
	p, err := sim.ParamsForArch(name)
	if err != nil {
		return nil, err
	}
	if o.Arch == ArchBabelFishSW {
		p.Kernel.ASLR = kernel.ASLRSW
		p.MMU.ASLRHW = false
	}
	if o.Cores > 0 {
		p.Cores = o.Cores
	}
	if o.Mem > 0 {
		p.MemBytes = o.Mem
	}
	if o.Quantum > 0 {
		p.Quantum = memdefs.Cycles(o.Quantum)
	}
	if o.DisableTHP {
		p.Kernel.THP = false
	}
	if o.CoreShards > 0 {
		p.CoreShards = o.CoreShards
	}
	return &Machine{Machine: sim.New(p)}, nil
}

// App identifies one of the paper's workloads.
type App int

const (
	MongoDB App = iota
	ArangoDB
	HTTPd
	GraphChi
	FIO
)

// String returns the application's -app name.
func (a App) String() string {
	if apps := workloads.Apps(); a >= 0 && int(a) < len(apps) {
		return apps[a].Name
	}
	return fmt.Sprintf("App(%d)", int(a))
}

// spec returns the application's workload spec; the enum follows
// workloads.Apps's paper order.
func (a App) spec() *workloads.AppSpec { return workloads.Apps()[a] }

// Deployment re-exports the workload deployment handle.
type Deployment = workloads.Deployment

// FaaSGroup re-exports the serverless deployment handle.
type FaaSGroup = workloads.FaaSGroup

// Engine re-exports the container engine.
type Engine = container.Engine

// Container re-exports a started container.
type Container = container.Container

// DeployApp deploys one application (its image files, CCID group and
// template process) on the machine. scale sizes the dataset relative to
// the paper's 500MB (1.0 ≈ 48MB in simulator units); seed fixes ASLR and
// request randomness.
func DeployApp(m *Machine, app App, scale float64, seed uint64) (*Deployment, error) {
	return workloads.Deploy(m.Machine, app.spec(), scale, seed)
}

// DeployServerless deploys the FaaS group (Parse, Hash and Marshal on a
// shared runtime image). sparse selects the sparse input-access variant.
func DeployServerless(m *Machine, sparse bool, scale float64, seed uint64) (*FaaSGroup, error) {
	return workloads.DeployFaaS(m.Machine, sparse, scale, seed)
}

// NewEngine creates a Docker-style container engine on the machine.
func NewEngine(m *Machine) *Engine {
	return container.NewEngine(m.Machine)
}

// Experiments exposes the runners that regenerate the paper's tables and
// figures (see internal/experiments for the result types).
type Experiments = experiments.Options

// DefaultExperiments returns the standard experiment options.
func DefaultExperiments() Experiments { return experiments.Default() }

// QuickExperiments returns reduced options for smoke runs.
func QuickExperiments() Experiments { return experiments.Quick() }
