package main

import "strings"

// perLayerUnits lists every per-layer metric with its unit and better
// direction, in report order; BENCHMARK.json lists the same. Every
// workload reports all of them: a layer a workload does not exercise
// reads 0 (its count metric says so), and so do the machine-level
// metrics on fleet-flash, whose node machines the fleet API does not
// expose. README.md maps each layer to the end-to-end metric it should
// move.
var perLayerUnits = func() [][3]string {
	var out [][3]string
	for _, l := range layers {
		out = append(out, [3]string{"host_share." + l, "%", "lower"})
	}
	return append(out, [][3]string{
		{"profile.samples", "count", "higher"},
		{"trace.overhead_pct", "%", "lower"},
		{"op.ref_p50", "ref", "lower"},
		{"op.ms_p50", "ms", "lower"},
		{"op.ref_ms_p50", "ms", "lower"},
		{"op.tail_ms", "ms", "lower"},
		{"op.tail_pct", "pct", "higher"},
		{"op.samples", "count", "higher"},
		{"sim.mips", "Minstr/s", "higher"},
		{"sim.mips_traced", "Minstr/s", "higher"},
		{"sim.run_ms_p50", "ms", "lower"},
		{"sim.run_ms_tail", "ms", "lower"},
		{"sim.instrs", "instr", "lower"},
		{"sim.cycles", "cyc", "lower"},
		{"memsys.data_access_ns", "ns", "lower"},
		{"memsys.data_accesses", "count", "lower"},
		{"memsys.walk_ref_ns", "ns", "lower"},
		{"memsys.walk_refs", "count", "lower"},
		{"dram.access_ns", "ns", "lower"},
		{"dram.accesses", "count", "lower"},
		{"cache.l1d.hits", "count", "higher"},
		{"cache.l1d.misses", "count", "lower"},
		{"cache.l1i.hits", "count", "higher"},
		{"cache.l1i.misses", "count", "lower"},
		{"cache.l2.hits", "count", "higher"},
		{"cache.l2.misses", "count", "lower"},
		{"cache.l3.hits", "count", "higher"},
		{"cache.l3.misses", "count", "lower"},
		{"dram.reads", "count", "lower"},
		{"dram.row_hits", "count", "higher"},
		{"dram.row_misses", "count", "lower"},
		{"mmu.translations", "count", "lower"},
		{"mmu.walks", "count", "lower"},
		{"tlb.l1d.hits", "count", "higher"},
		{"tlb.l1d.misses", "count", "lower"},
		{"tlb.l1i.hits", "count", "higher"},
		{"tlb.l1i.misses", "count", "lower"},
		{"tlb.l2.hits", "count", "higher"},
		{"tlb.l2.misses", "count", "lower"},
		{"xlat.mpki_data", "mpki", "lower"},
		{"xlat.mpki_instr", "mpki", "lower"},
		{"xlat.shared_hit_frac_data", "frac", "higher"},
		{"xlat.shared_hit_frac_instr", "frac", "higher"},
		{"xcache.probes", "count", "lower"},
		{"xcache.hits", "count", "higher"},
		{"xcache.misses", "count", "lower"},
		{"xcache.hit_rate", "frac", "higher"},
		{"pwc.accesses", "count", "lower"},
		{"pwc.hits", "count", "higher"},
		{"pwc.hit_ratio", "frac", "higher"},
		{"kernel.forks", "count", "lower"},
		{"kernel.minor_faults", "count", "lower"},
		{"kernel.link_faults", "count", "lower"},
		{"kernel.cow_faults", "count", "lower"},
		{"kernel.shootdowns", "count", "lower"},
		{"kernel.fault_cycles", "cyc", "lower"},
		{"kernel.exits", "count", "lower"},
		{"kernel.exit_us_p50", "us", "lower"},
		{"kernel.exit_us_tail", "us", "lower"},
		{"workloads.steps", "count", "lower"},
		{"workloads.ns_per_step", "ns", "lower"},
		{"workloads.spawns", "count", "lower"},
		{"workloads.spawn_ms_p50", "ms", "lower"},
		{"workloads.spawn_ms_tail", "ms", "lower"},
		{"workloads.newgens", "count", "lower"},
		{"workloads.newgen_ms_p50", "ms", "lower"},
		{"workloads.newgen_ms_tail", "ms", "lower"},
		{"container.starts", "count", "lower"},
		{"container.start_ms_p50", "ms", "lower"},
		{"container.start_ms_tail", "ms", "lower"},
		{"fleet.req_offered", "count", "lower"},
		{"fleet.req_admitted", "count", "lower"},
		{"fleet.admit_frac", "frac", "higher"},
		{"fleet.req_served", "count", "higher"},
		{"fleet.req_dropped", "count", "lower"},
		{"fleet.crashes", "count", "lower"},
		{"fleet.restarts", "count", "lower"},
		{"fleet.placements", "count", "lower"},
		{"fleet.req_latency_p99", "cyc", "lower"},
		{"experiments.fig7_s", "s", "lower"},
		{"experiments.fig9_s", "s", "lower"},
		{"experiments.fig10_s", "s", "lower"},
		{"experiments.fig11_s", "s", "lower"},
		{"experiments.largertlb_s", "s", "lower"},
		{"experiments.bringup_s", "s", "lower"},
		{"experiments.resources_s", "s", "lower"},
		{"go.alloc_bytes_per_kinstr", "B/kinstr", "lower"},
		{"go.gc_cycles", "count", "lower"},
	}...)
}()

// counterSum adds up one registry counter across the machines of a
// repetition (start-storm keys its two machines' counters by label).
func counterSum(c map[string]float64, name string) float64 {
	s := 0.0
	for k, v := range c {
		if k == name || strings.HasSuffix(k, "/"+name) {
			s += v
		}
	}
	return s
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics assembles the per-layer metrics of a traced run: plain is
// the profiled untraced pass, traced the same repetitions with spans.
// Registry counters are exact and belong to the first repetition; seam
// counts are means per repetition.
func layerMetrics(plain, traced *pass, tr *tracer, shares map[string]float64, nsamples int) map[string]metric {
	v := map[string]float64{}
	for _, l := range layers {
		v["host_share."+l] = shares[l]
	}
	v["profile.samples"] = float64(nsamples)
	v["trace.overhead_pct"] = 100 * (ratio(sum(traced.opMS), sum(plain.opMS)) - 1)
	op := summarize(plain.opMS)
	v["op.ref_p50"], v["op.ms_p50"], v["op.ref_ms_p50"] = median(plain.opRef()), op.P50, median(plain.refMS)
	v["op.tail_ms"], v["op.tail_pct"], v["op.samples"] = op.Tail, op.TailPct, float64(op.N)
	v["sim.mips"], v["sim.mips_traced"] = plain.mips(), traced.mips()
	run := summarize(tr.spans("sim.run_ms"))
	v["sim.run_ms_p50"], v["sim.run_ms_tail"] = run.P50, run.Tail

	reps := float64(traced.reps)
	v["memsys.data_access_ns"] = tr.data.nsPerUnit()
	v["memsys.data_accesses"] = float64(tr.data.units.Load()) / reps
	v["memsys.walk_ref_ns"] = tr.walk.nsPerUnit()
	v["memsys.walk_refs"] = float64(tr.walk.units.Load()) / reps
	v["dram.access_ns"] = tr.dram.nsPerUnit()
	v["dram.accesses"] = float64(tr.dram.units.Load()) / reps
	v["workloads.ns_per_step"] = tr.gen.nsPerUnit()
	v["workloads.steps"] = float64(tr.gen.units.Load()) / reps

	c := traced.first.counters
	for _, name := range []string{
		"sim.instrs", "sim.cycles",
		"cache.l1d.hits", "cache.l1d.misses", "cache.l1i.hits", "cache.l1i.misses",
		"cache.l2.hits", "cache.l2.misses", "cache.l3.hits", "cache.l3.misses",
		"dram.reads", "dram.row_hits", "dram.row_misses",
		"mmu.translations", "mmu.walks",
		"tlb.l1d.hits", "tlb.l1d.misses", "tlb.l1i.hits", "tlb.l1i.misses", "tlb.l2.hits", "tlb.l2.misses",
		"xcache.hits", "xcache.misses", "pwc.accesses", "pwc.hits",
		"kernel.forks", "kernel.minor_faults", "kernel.link_faults", "kernel.cow_faults",
		"kernel.shootdowns", "kernel.fault_cycles",
		"fleet.req_offered", "fleet.req_admitted", "fleet.req_served", "fleet.req_dropped",
		"fleet.crashes", "fleet.restarts", "fleet.placements", "fleet.req_latency_p99",
	} {
		v[name] = counterSum(c, name)
	}
	// Ratios are recomputed from the summed counts, not summed.
	instrs := v["sim.instrs"]
	v["xlat.mpki_data"] = 1000 * ratio(counterSum(c, "mmu.l2_miss_data"), instrs)
	v["xlat.mpki_instr"] = 1000 * ratio(counterSum(c, "mmu.l2_miss_instr"), instrs)
	v["xlat.shared_hit_frac_data"] = ratio(counterSum(c, "mmu.l2_shared_data"), counterSum(c, "mmu.l2_hit_data"))
	v["xlat.shared_hit_frac_instr"] = ratio(counterSum(c, "mmu.l2_shared_instr"), counterSum(c, "mmu.l2_hit_instr"))
	v["xcache.probes"] = v["xcache.hits"] + v["xcache.misses"] + counterSum(c, "xcache.stale")
	v["xcache.hit_rate"] = ratio(v["xcache.hits"], v["xcache.probes"])
	v["pwc.hit_ratio"] = ratio(v["pwc.hits"], v["pwc.accesses"])
	v["fleet.admit_frac"] = ratio(v["fleet.req_admitted"], v["fleet.req_offered"])

	for _, s := range []struct{ span, prefix string }{
		{"kernel.exit_us", "kernel.exit"},
		{"workloads.spawn_ms", "workloads.spawn"},
		{"workloads.newgen_ms", "workloads.newgen"},
		{"container.start_ms", "container.start"},
	} {
		d := summarize(tr.spans(s.span))
		unit := strings.TrimPrefix(s.span, s.prefix)
		v[s.prefix+"s"] = float64(d.N) / reps
		v[s.prefix+unit+"_p50"], v[s.prefix+unit+"_tail"] = d.P50, d.Tail
	}
	for _, fig := range suiteFigures {
		v["experiments."+fig+"_s"] = median(tr.spans("experiments." + fig + "_s"))
	}
	// Both come from the profiled pass's timed operations alone.
	v["go.alloc_bytes_per_kinstr"] = 1000 * ratio(float64(plain.allocBytes), float64(plain.instrs))
	v["go.gc_cycles"] = float64(plain.gcCycles)

	lm := make(map[string]metric, len(perLayerUnits))
	for _, nu := range perLayerUnits {
		lm[nu[0]] = metric{v[nu[0]], nu[1]}
	}
	return lm
}

// suiteFigures names the quick suite's runners, each timed by a span.
var suiteFigures = []string{"fig7", "fig9", "fig10", "fig11", "largertlb", "bringup", "resources"}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
