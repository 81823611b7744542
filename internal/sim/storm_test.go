package sim_test

import (
	"fmt"
	"strings"
	"testing"

	"babelfish/internal/container"
	"babelfish/internal/kernel"
	"babelfish/internal/memsys"
	"babelfish/internal/sim"
	"babelfish/internal/workloads"
)

// stormParams is the machine shape shared by the storm tests: small
// memory so the OOM-reclaim storm bites, BabelFish mode so every sharing
// seam (CCID TLB entries, shared page tables, MaskPages) is live.
func stormParams() sim.Params {
	p := sim.DefaultParams(kernel.ModeBabelFish)
	p.Cores = 2
	p.MemBytes = 96 << 20
	p.Quantum = 50_000
	return p
}

// runStorm drives one machine through every kernel-mutation seam the
// TLBs and policy structures must survive, in a fixed seeded sequence:
//
//   - fork storm: container starts (fork + CoW arming + bring-up faults)
//   - shootdown storm: the GraphChi dataset rotation unmaps and remaps
//     file chunks mid-run, broadcasting shootdowns
//   - teardown storm: container stops (exit flush, PCID release; the last
//     exit of a generation tears shared tables down)
//   - recycle storm: a new container generation reuses the group's layout
//   - OOM-reclaim storm: a seeded allocation-fault injector forces
//     reclaim and OOM kills under pressure
//
// It returns a fingerprint of everything the simulation computed; the
// caller compares fingerprints across sharding configurations, which
// must be byte-identical.
func runStorm(t *testing.T, p sim.Params) string {
	t.Helper()
	m := sim.New(p)
	d, err := workloads.Deploy(m, workloads.GraphChi(), 0.25, 7)
	if err != nil {
		t.Fatal(err)
	}
	e := container.NewEngine(m)

	var cs []*container.Container
	start := func(n int, seedBase uint64) {
		for i := 0; i < n; i++ {
			c, err := e.Start(d, i%p.Cores, seedBase+uint64(i))
			if err != nil {
				t.Fatal(err)
			}
			cs = append(cs, c)
		}
	}
	run := func(instr uint64) {
		if err := m.Run(instr); err != nil {
			t.Fatal(err)
		}
	}

	start(4, 20) // fork storm
	run(120_000) // shootdown storm (dataset rotation)
	e.Stop(d, cs[0])
	e.Stop(d, cs[2]) // teardown storm
	run(40_000)
	start(2, 40) // recycle: new generation on the group's layout
	m.Mem.SetInjector(memsys.NewInjector(memsys.InjectConfig{Seed: 0xBEEF, Nth: 7}))
	run(80_000) // OOM-reclaim storm
	m.Mem.SetInjector(nil)
	run(40_000) // settle

	// The books must balance in every configuration before we compare.
	if rep := m.Kernel.Audit(); !rep.OK() {
		t.Fatalf("kernel audit:\n%s", rep)
	}
	if rep := m.Mem.Audit(); !rep.OK() {
		t.Fatalf("physmem audit:\n%s", rep)
	}
	if rep := m.AuditTLBs(); !rep.OK() {
		t.Fatalf("TLB audit:\n%s", rep)
	}
	c, err := m.Counters()
	if err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	for _, core := range m.Cores {
		fmt.Fprintf(&b, "core%d: cycles=%d instrs=%d\n", core.ID, core.Cycles, core.Instrs)
	}
	fmt.Fprintf(&b, "agg: %+v\n", m.Aggregate())
	fmt.Fprintf(&b, "kernel: %+v\n", m.Kernel.Stats())
	fmt.Fprintf(&b, "counters: %s\n", c)
	fmt.Fprintf(&b, "oomKills: %d\n", m.OOMKills())
	fmt.Fprintf(&b, "lat: mean=%.6f p95=%.6f\n", d.MeanLatency(), d.TailLatency(95))
	return b.String()
}
