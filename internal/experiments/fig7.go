package experiments

import (
	"strings"

	"babelfish/internal/kernel"
	"babelfish/internal/memdefs"
	"babelfish/internal/metrics"
	"babelfish/internal/mmu"
	"babelfish/internal/sim"
	"babelfish/internal/telemetry"
)

// Fig7Step is one row of the paper's Figure 7 timeline: the translation
// of VPN0 by one container, with where it was resolved and what it cost.
type Fig7Step struct {
	Container string
	Core      int
	Level     string // "L1", "L2", "walk"
	Faults    int
	WalkMem   int // memory requests issued by the walk
	Cycles    memdefs.Cycles
}

// Fig7Result reproduces the paper's Figure 7 example: containers A, B and
// C access the same VPN0 for the first time — A on core 0, then B on
// core 1, then C on core 0 — under the conventional architecture and
// under BabelFish.
type Fig7Result struct {
	Conventional [3]Fig7Step
	BabelFish    [3]Fig7Step
	// Delta compares the two machines' full telemetry registries after the
	// three translations; only metrics whose values differ appear.
	Delta *telemetry.DiffResult `json:"delta,omitempty"`
}

// Fig7 runs the example.
func Fig7(o Options) (*Fig7Result, error) { return alone(o, (*Suite).Fig7) }

// Fig7 declares the example's cells on s, one per architecture.
func (s *Suite) Fig7(o Options) func() *Fig7Result {
	var steps [2][3]Fig7Step
	var snaps [2]*telemetry.Snapshot
	for i, mode := range []kernel.Mode{kernel.ModeBaseline, kernel.ModeBabelFish} {
		s.own.add("fig7/"+mode.String(), func() (err error) {
			steps[i], snaps[i], err = fig7Mode(o, mode)
			return err
		})
	}
	return func() *Fig7Result {
		return &Fig7Result{Conventional: steps[0], BabelFish: steps[1], Delta: telemetry.Diff(snaps[0], snaps[1])}
	}
}

// fig7Mode runs the three-container timeline on one fresh machine. The
// example's scale is fixed by the paper; only the simulator-infrastructure
// knob (shards) is taken from o.
func fig7Mode(o Options, mode kernel.Mode) ([3]Fig7Step, *telemetry.Snapshot, error) {
	var steps [3]Fig7Step
	p := sim.DefaultParams(mode)
	p.Cores = 2
	p.MemBytes = 256 << 20
	p.CoreShards = o.CoreShards
	m := sim.New(p)
	k := m.Kernel
	g := k.NewGroup("fig7", 7)
	tmpl, err := k.CreateProcess(g, "tmpl")
	if err != nil {
		return steps, nil, err
	}
	// One shared file page: VPN0. PPN0 is in memory (page cache) but
	// not yet marked present in any container's pte_t, exactly the
	// paper's setup.
	f, err := k.CreateFile("fig7/file", 8)
	if err != nil {
		return steps, nil, err
	}
	r, err := g.Region("file", kernel.SegMmap, 8)
	if err != nil {
		return steps, nil, err
	}
	if _, err := tmpl.MapFile(r, f, 0, memdefs.PermRead|memdefs.PermUser, true, "file"); err != nil {
		return steps, nil, err
	}
	if err := f.Prefault(); err != nil {
		return steps, nil, err
	}

	names := []string{"A", "B", "C"}
	cores := []int{0, 1, 0}
	for j := 0; j < 3; j++ {
		c, _, err := k.Fork(tmpl, names[j])
		if err != nil {
			return steps, nil, err
		}
		ctx := &mmu.Ctx{
			PID: c.PID, PCID: c.PCID, CCID: c.CCID, Tables: c.Tables,
			SharedVA: c.SharedVAFunc(), PCBit: c.PCBitFunc(), PCMask: c.PCMaskFunc(),
		}
		va := c.ProcVA(r.Start)
		core := m.Cores[cores[j]]
		_, cyc, info, err := core.MMU.Translate(ctx, va, false, memdefs.AccessData)
		if err != nil {
			return steps, nil, err
		}
		steps[j] = Fig7Step{
			Container: names[j], Core: cores[j], Level: info.Level,
			Faults: info.Faults, WalkMem: info.WalkMemAcc, Cycles: cyc,
		}
	}
	label := "conventional"
	if mode == kernel.ModeBabelFish {
		label = "babelfish"
	}
	return steps, m.Registry.Snapshot(label), nil
}

// String renders the two timelines.
func (r *Fig7Result) String() string {
	var b strings.Builder
	render := func(title string, steps [3]Fig7Step) {
		t := metrics.NewTable(title, "container", "core", "resolved", "minor-faults", "walk-mem-reqs", "cycles")
		for _, s := range steps {
			t.Row(s.Container, s.Core, s.Level, s.Faults, s.WalkMem, uint64(s.Cycles))
		}
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	render("Figure 7 (conventional): A on core 0, B on core 1, C on core 0 — each walks and faults", r.Conventional)
	render("Figure 7 (BabelFish): B reuses A's page-table entries (no fault); C hits A's TLB entry", r.BabelFish)
	if r.Delta != nil {
		b.WriteString(r.Delta.String())
		b.WriteString("\n")
	}
	b.WriteString("paper: conventional = 3 full walks + 3 minor faults; BabelFish = 1 walk+fault (A), 1 faultless walk (B), 1 TLB hit (C)\n")
	return b.String()
}
