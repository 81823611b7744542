package sim_test

import (
	"testing"

	"babelfish/internal/kernel"
	"babelfish/internal/sim"
	"babelfish/internal/workloads"
)

// BenchmarkTranslate measures the translation hot path in steady state:
// a warmed TLB hierarchy, the observe gate off, and a nil Info pointer so
// TranslateInto takes the scratch fast path (no per-access Info copy).
func BenchmarkTranslate(b *testing.B) {
	p := sim.DefaultParams(kernel.ModeBabelFish)
	p.Cores = 1
	p.MemBytes = 256 << 20
	m := sim.New(p)
	d, err := workloads.Deploy(m, workloads.HTTPd(), 0.1, 6)
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := d.Spawn(0, 1); err != nil {
		b.Fatal(err)
	}
	if err := d.PrefaultAll(); err != nil {
		b.Fatal(err)
	}
	proc := d.Containers[0]
	gen := workloads.NewBringUp(d, proc, 2)
	task := m.AddTask(0, proc, gen)
	// Record a step window, then replay it: after the first pass every
	// access hits warm TLBs, so the benchmark isolates lookup cost.
	steps := make([]sim.Step, 0, 4096)
	var s sim.Step
	for len(steps) < cap(steps) && gen.Next(&s) {
		steps = append(steps, s)
	}
	if len(steps) == 0 {
		b.Fatal("generator produced no steps")
	}
	mmu0 := m.Cores[0].MMU
	for i := range steps {
		if _, _, err := mmu0.TranslateInto(task.Ctx(), steps[i].VA, steps[i].Write, steps[i].Kind, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := &steps[i%len(steps)]
		if _, _, err := mmu0.TranslateInto(task.Ctx(), st.VA, st.Write, st.Kind, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMachineRun measures whole-machine simulation throughput (the
// scheduler loop, including the gated Info plumbing) with telemetry off.
//
// The variants isolate the simulator's perf levers: Wide vs Sharded is
// core-sharded stepping's win on a
// multi-core machine (bounded by host CPUs — on a single-CPU host it
// measures barrier overhead instead); Victima and Coalesced price the
// per-miss policy-store probes of the registry architectures.
func BenchmarkMachineRun(b *testing.B) {
	cases := []struct {
		name   string
		arch   string
		cores  int
		shards int
	}{
		{"Baseline", "baseline", 1, 0},
		{"BabelFish", "babelfish", 1, 0},
		{"BabelFishWide", "babelfish", 4, 0},
		{"BabelFishSharded", "babelfish", 4, 4},
		{"Victima", "victima", 1, 0},
		{"Coalesced", "coalesced", 1, 0},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			p, err := sim.ParamsForArch(c.arch)
			if err != nil {
				b.Fatal(err)
			}
			p.Cores = c.cores
			p.MemBytes = 512 << 20
			p.CoreShards = c.shards
			m := sim.New(p)
			d, err := workloads.Deploy(m, workloads.MongoDB(), 0.25, 42)
			if err != nil {
				b.Fatal(err)
			}
			tasks := 2
			if c.cores > tasks {
				tasks = c.cores
			}
			for j := 0; j < tasks; j++ {
				if _, _, err := d.Spawn(j%c.cores, uint64(100+j)); err != nil {
					b.Fatal(err)
				}
			}
			if err := d.PrefaultAll(); err != nil {
				b.Fatal(err)
			}
			if err := m.Run(50_000); err != nil { // warm
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.Run(100_000); err != nil {
					b.Fatal(err)
				}
			}
			agg := m.Aggregate()
			b.ReportMetric(float64(agg.Instrs)/float64(b.N), "instrs/op")
		})
	}
}
