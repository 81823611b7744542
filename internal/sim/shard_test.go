package sim_test

import (
	"fmt"
	"reflect"
	"testing"

	"babelfish/internal/container"
	"babelfish/internal/kernel"
	"babelfish/internal/obs"
	"babelfish/internal/sim"
	"babelfish/internal/telemetry"
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

// TestShardedSMTWidthIdentity runs the storm with SMT on at widths 1
// and 4. SMT cores step in parallel like any other, and the storm's
// deferred faults, parked refills and barrier OOM kills, each serviced
// for the thread whose step was in flight, must give the same result at
// every width.
func TestShardedSMTWidthIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("storm identity is slow")
	}
	run := func(width int) (string, uint64) {
		p := stormParams()
		p.SMT = true
		p.CoreShards = width
		m := sim.New(p)
		return runStormOn(t, m), m.OOMKills()
	}
	want, kills := run(1)
	if kills == 0 {
		t.Fatalf("vacuous SMT storm, no OOM kill:\n%s", want)
	}
	if got, _ := run(4); got != want {
		t.Errorf("SMT core-shards=4 diverged from 1:\n--- 1 ---\n%s--- 4 ---\n%s", want, got)
	}
}

// TestShardedObservedWidthIdentity runs the storm on sharded builds of
// widths 1 and 4 with telemetry (histograms and sampler) and obs span
// recording on: the fingerprints, span streams and sampled series must
// be identical. Observation runs inside the parallel segments and must
// describe the same schedule at every width.
func TestShardedObservedWidthIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("storm identity is slow")
	}
	run := func(width int) (string, []obs.Span, *telemetry.Series) {
		p := stormParams()
		p.CoreShards = width
		m := sim.New(p)
		m.EnableTelemetry(20_000)
		rec := obs.NewRecorder(9, 0, 1<<16)
		m.EnableObs(rec, 0)
		fp := runStormOn(t, m)
		return fp, rec.Spans(), m.Sampler().Series()
	}
	fp1, spans1, series1 := run(1)
	fp4, spans4, series4 := run(4)
	if fp4 != fp1 {
		t.Errorf("observed core-shards=4 diverged from 1:\n--- 1 ---\n%s--- 4 ---\n%s", fp1, fp4)
	}
	var faults int
	for _, s := range spans1 {
		if s.Kind == obs.KFault {
			faults++
		}
	}
	if faults == 0 || len(series1.Samples) == 0 {
		t.Fatalf("vacuous run: %d spans, %d fault spans, %d samples", len(spans1), faults, len(series1.Samples))
	}
	if !reflect.DeepEqual(spans1, spans4) {
		t.Errorf("span streams diverged: %d spans at width 1, %d at width 4", len(spans1), len(spans4))
	}
	// Compared as text: a NaN gauge would make DeepEqual fail on equal runs.
	if fmt.Sprint(*series1) != fmt.Sprint(*series4) {
		t.Error("sampled series diverged between widths 1 and 4")
	}
}

// TestShardedObservationDoesNotPerturb runs the storm at width 4 with
// telemetry (histograms and sampler) and obs span recording on, and
// checks it against the unobserved storm at width 1: observation runs
// inside the parallel segments, so watching a sharded run must not
// change anything it computes. The observed translation latency must
// also account for every translation cycle, barrier-serviced faults
// included.
func TestShardedObservationDoesNotPerturb(t *testing.T) {
	if testing.Short() {
		t.Skip("storm identity is slow")
	}
	plain := stormParams()
	plain.CoreShards = 1
	want := runStorm(t, plain)

	p := stormParams()
	p.CoreShards = 4
	m := sim.New(p)
	m.EnableTelemetry(20_000)
	rec := obs.NewRecorder(9, 0, 1<<16)
	m.EnableObs(rec, 0)
	if got := runStormOn(t, m); got != want {
		t.Errorf("observed core-shards=4 diverged from unobserved core-shards=1:\n--- unobserved ---\n%s--- observed ---\n%s", want, got)
	}
	var faults int
	for _, s := range rec.Spans() {
		if s.Kind == obs.KFault {
			faults++
		}
	}
	if samples := m.Sampler().Len(); faults == 0 || samples == 0 {
		t.Fatalf("vacuous run: %d fault spans, %d samples", faults, samples)
	}
	xlat, _ := m.Registry.Value("mmu.xlat_cycles")
	if sum := m.XlatHist().Sum(); float64(sum) != xlat {
		t.Errorf("XlatHist().Sum() = %d, mmu.xlat_cycles = %.0f; want equal", sum, xlat)
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
