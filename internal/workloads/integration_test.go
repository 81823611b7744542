package workloads

import (
	"testing"

	"babelfish/internal/kernel"
	"babelfish/internal/sim"
	"babelfish/internal/ycsb"
)

// buildPair deploys one app with two containers per core on a small
// 2-core machine for both architectures and runs warm-up + measurement.
func runPair(t *testing.T, spec func() *AppSpec, warm, measure uint64) (base, bf *sim.Machine, dBase, dBF *Deployment) {
	t.Helper()
	build := func(mode kernel.Mode) (*sim.Machine, *Deployment) {
		p := sim.DefaultParams(mode)
		p.Cores = 2
		p.MemBytes = 1 << 30
		p.Quantum = 200_000
		m := sim.New(p)
		d, err := Deploy(m, spec(), 0.25, 42)
		if err != nil {
			t.Fatal(err)
		}
		// 2 containers per core, as in the paper's data-serving setup.
		for core := 0; core < p.Cores; core++ {
			for j := 0; j < 2; j++ {
				if _, _, err := d.Spawn(core, uint64(100+core*10+j)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := m.Run(warm); err != nil {
			t.Fatal(err)
		}
		m.ResetStats()
		if err := m.Run(measure); err != nil {
			t.Fatal(err)
		}
		return m, d
	}
	base, dBase = build(kernel.ModeBaseline)
	bf, dBF = build(kernel.ModeBabelFish)
	return base, bf, dBase, dBF
}

func TestEndToEndMongoBabelFishWins(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	base, bf, dBase, dBF := runPair(t, MongoDB, 300_000, 600_000)

	ab, af := base.Aggregate(), bf.Aggregate()
	if ab.Instrs == 0 || af.Instrs == 0 {
		t.Fatal("no instructions executed")
	}
	t.Logf("baseline:  instrs=%d L2missD=%d L2missI=%d faults=%d meanLat=%.0f",
		ab.Instrs, ab.L2TLBMissD, ab.L2TLBMissI, ab.Faults, dBase.MeanLatency())
	t.Logf("babelfish: instrs=%d L2missD=%d L2missI=%d faults=%d meanLat=%.0f sharedD=%.2f sharedI=%.2f",
		af.Instrs, af.L2TLBMissD, af.L2TLBMissI, af.Faults, dBF.MeanLatency(),
		af.SharedHitFracD(), af.SharedHitFracI())

	if af.MPKIData() >= ab.MPKIData() {
		t.Errorf("BabelFish data MPKI %.3f not below baseline %.3f", af.MPKIData(), ab.MPKIData())
	}
	if af.MPKIInstr() >= ab.MPKIInstr() {
		t.Errorf("BabelFish instr MPKI %.3f not below baseline %.3f", af.MPKIInstr(), ab.MPKIInstr())
	}
	if dBF.MeanLatency() >= dBase.MeanLatency() {
		t.Errorf("BabelFish mean latency %.0f not below baseline %.0f", dBF.MeanLatency(), dBase.MeanLatency())
	}
	if af.SharedHitFracD() <= 0 && af.SharedHitFracI() <= 0 {
		t.Error("BabelFish saw no shared L2 TLB hits")
	}
	// Characterization sanity: a healthy shareable fraction.
	c := bf.Kernel.CharacterizeGroup(dBF.Group)
	t.Logf("characterization: total=%d shareable=%.1f%% activeReduction=%.1f%%",
		c.Total, c.ShareablePct(), c.ActiveReductionPct())
	if c.ShareablePct() < 20 {
		t.Errorf("shareable fraction %.1f%% implausibly low", c.ShareablePct())
	}
}

// TestEndToEndFunctionsRunToCompletion runs the three sparse functions of
// one FaaS group on one core under both kernels: each finishes with
// exactly one latency sample.
func TestEndToEndFunctionsRunToCompletion(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	for _, mode := range []kernel.Mode{kernel.ModeBaseline, kernel.ModeBabelFish} {
		p := sim.DefaultParams(mode)
		p.Cores = 1
		p.MemBytes = 1 << 30
		p.Quantum = 200_000
		m := sim.New(p)
		fg, err := DeployFaaS(m, true, 0.25, 1)
		if err != nil {
			t.Fatal(err)
		}
		var tasks []*sim.Task
		for i, name := range fg.FunctionNames() {
			task, _, err := fg.Spawn(name, 0, uint64(50+i))
			if err != nil {
				t.Fatal(err)
			}
			tasks = append(tasks, task)
		}
		if len(tasks) != 3 {
			t.Fatalf("[%v] %d functions in the group, want 3", mode, len(tasks))
		}
		if err := m.RunToCompletion(); err != nil {
			t.Fatal(err)
		}
		for i, task := range tasks {
			if !task.Done {
				t.Fatalf("[%v] function %d did not finish", mode, i)
			}
			if task.Lat.Count() != 1 {
				t.Fatalf("[%v] function %d recorded %d latencies", mode, i, task.Lat.Count())
			}
		}
	}
}

func TestZipfDistribution(t *testing.T) {
	rng := NewRNG(7)
	z := ycsb.NewZipf(1000, 0.99)
	counts := make([]int, 1000)
	for i := 0; i < 100_000; i++ {
		counts[z.Draw(rng.Float64())]++
	}
	if counts[0] <= counts[500] {
		t.Error("zipf head not hotter than middle")
	}
	head := 0
	for i := 0; i < 100; i++ {
		head += counts[i]
	}
	if frac := float64(head) / 100_000; frac < 0.5 {
		t.Errorf("top-10%% mass = %.2f, want skewed", frac)
	}
}

func TestCodeWalkerStaysInBounds(t *testing.T) {
	p := sim.DefaultParams(kernel.ModeBaseline)
	p.Cores = 1
	p.MemBytes = 256 << 20
	m := sim.New(p)
	d, err := Deploy(m, HTTPd(), 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	task, _, err := d.Spawn(0, 9)
	if err != nil {
		t.Fatal(err)
	}
	_ = task
	proc := d.Containers[0]
	w := newCodeWalker(proc, NewRNG(1), 0.2, 0.1, d.RBin, d.RLibs)
	var s sim.Step
	for i := 0; i < 10_000; i++ {
		w.next(&s, sim.ReqNone)
		gva := proc.GroupVA(s.VA)
		inBin := gva >= d.RBin.Start && gva < d.RBin.End()
		inLibs := gva >= d.RLibs.Start && gva < d.RLibs.End()
		if !inBin && !inLibs {
			t.Fatalf("code fetch escaped regions: gva %#x", gva)
		}
	}
}
