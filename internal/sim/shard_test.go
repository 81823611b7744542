package sim_test

import (
	"testing"

	"babelfish/internal/container"
	"babelfish/internal/kernel"
	"babelfish/internal/sim"
	"babelfish/internal/workloads"
)

// TestShardedWidthIdentity runs the full kernel-mutation storm under
// sharded stepping at widths 1 and 4: the quantum-barrier design
// guarantees byte-identical results at any width (shard.go's determinism
// argument).
func TestShardedWidthIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("storm identity is slow")
	}
	one := stormParams()
	one.CoreShards = 1
	want := runStorm(t, one)

	four := stormParams()
	four.CoreShards = 4
	if got := runStorm(t, four); got != want {
		t.Errorf("core-shards=4 diverged from 1:\n--- 1 ---\n%s--- 4 ---\n%s", want, got)
	}
}

// TestShardedRaceCoverage exists for `go test -race`: it steps four cores
// concurrently through faulting, shootdown-broadcasting work so the race
// detector sees the parallel phases (atomic page-table access, the
// barrier hand-offs). Without -race it doubles as a smoke test that a
// wider machine survives sharded stepping with balanced books.
func TestShardedRaceCoverage(t *testing.T) {
	p := sim.DefaultParams(kernel.ModeBabelFish)
	p.Cores = 4
	p.MemBytes = 256 << 20
	p.Quantum = 20_000
	p.CoreShards = 4
	m := sim.New(p)
	d, err := workloads.Deploy(m, workloads.GraphChi(), 0.25, 11)
	if err != nil {
		t.Fatal(err)
	}
	e := container.NewEngine(m)
	for i := 0; i < 8; i++ {
		if _, err := e.Start(d, i%p.Cores, 60+uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Run(150_000); err != nil {
		t.Fatal(err)
	}
	if rep := m.Kernel.Audit(); !rep.OK() {
		t.Fatalf("kernel audit:\n%s", rep)
	}
	if rep := m.Mem.Audit(); !rep.OK() {
		t.Fatalf("physmem audit:\n%s", rep)
	}
	if rep := m.AuditTLBs(); !rep.OK() {
		t.Fatalf("TLB audit:\n%s", rep)
	}
	// Vacuity guard: the concurrent phases must have run real
	// translations, not just faulted at the barrier.
	var l1Hits uint64
	for _, c := range m.Cores {
		l1Hits += c.MMU.Stats().L1Hits
	}
	if l1Hits == 0 {
		t.Fatal("sharded run never hit the L1 TLB")
	}
}
