// Benchmarks regenerating each table and figure of the BabelFish paper
// (one benchmark per artifact, per DESIGN.md's experiment index), plus
// ablation benches for the design choices the paper calls out. Key
// outputs are attached to each benchmark as custom metrics, so
//
//	go test -bench=. -benchmem
//
// prints the reproduced numbers alongside the runtime cost of producing
// them. Benchmarks run at the Quick() scale so the whole suite stays in
// CI range; run cmd/bfbench for full-scale rows.
package babelfish

import (
	"strings"
	"testing"

	"babelfish/internal/experiments"
	"babelfish/internal/kernel"
	"babelfish/internal/memdefs"
	"babelfish/internal/memsys"
	"babelfish/internal/physmem"
	"babelfish/internal/sim"
	"babelfish/internal/tlb"
	"babelfish/internal/workloads"
	"babelfish/internal/ycsb"
)

func benchOpts() experiments.Options { return experiments.Quick() }

// BenchmarkTableI reports the configured architecture (Table I).
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.TableI(benchOpts()).String() == "" {
			b.Fatal("empty Table I")
		}
	}
}

// BenchmarkFig9 regenerates the pte_t shareability characterization.
// Paper: containers 53% shareable / functions ~93%.
func BenchmarkFig9(b *testing.B) {
	var r *experiments.Fig9Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Fig9(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.ContainerShareablePct, "container-shareable-%")
	b.ReportMetric(r.FunctionShareablePct, "function-shareable-%")
	b.ReportMetric(r.FunctionActiveRed, "function-activeRed-%")
}

// BenchmarkFig10a regenerates the L2 TLB MPKI reductions (paper:
// data-serving D −66% / I −96%).
func BenchmarkFig10a(b *testing.B) {
	var r *experiments.Fig10Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Fig10(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	avg := r.ClassAverages()
	if v, ok := avg["data-serving"]; ok {
		b.ReportMetric(v[0], "serving-D-red-%")
		b.ReportMetric(v[1], "serving-I-red-%")
	}
}

// BenchmarkFig10b regenerates the shared-hit fractions.
func BenchmarkFig10b(b *testing.B) {
	var r *experiments.Fig10Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Fig10(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	var sumD, sumI float64
	for _, row := range r.Rows {
		sumD += row.SharedHitD
		sumI += row.SharedHitI
	}
	n := float64(len(r.Rows))
	b.ReportMetric(sumD/n, "avg-sharedHit-D")
	b.ReportMetric(sumI/n, "avg-sharedHit-I")
}

// BenchmarkFig11 regenerates the latency/execution-time reductions
// (paper: serving mean −11% / tail −18%; compute −11%; dense −10%;
// sparse −55%).
func BenchmarkFig11(b *testing.B) {
	var r *experiments.Fig11Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Fig11(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.MeanServingReduction(), "serving-mean-red-%")
	b.ReportMetric(r.TailServingReduction(), "serving-tail-red-%")
	b.ReportMetric(r.ComputeReduction(), "compute-red-%")
	b.ReportMetric(r.DenseReduction(), "dense-red-%")
	b.ReportMetric(r.SparseReduction(), "sparse-red-%")
}

// BenchmarkTableII regenerates the TLB-vs-page-table attribution.
func BenchmarkTableII(b *testing.B) {
	var r *experiments.Fig11Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Fig11(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if experiments.TableII(r).String() == "" {
			b.Fatal("empty Table II")
		}
	}
}

// BenchmarkTableIII regenerates the CACTI-surrogate L2 TLB comparison
// (paper: BabelFish 0.062mm²/456ps/21.97pJ/6.22mW at 22nm).
func BenchmarkTableIII(b *testing.B) {
	var r *experiments.TableIIIResult
	for i := 0; i < b.N; i++ {
		r = experiments.TableIII()
	}
	b.ReportMetric(r.BF.AreaMM2, "bf-area-mm2")
	b.ReportMetric(r.BF.AccessPS, "bf-access-ps")
}

// BenchmarkLargerTLB regenerates the §VII-C comparison (paper: a larger
// conventional TLB gains only ~2.1%/0.6%).
func BenchmarkLargerTLB(b *testing.B) {
	var r *experiments.LargerTLBResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.LargerTLB(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	var larger, bf float64
	for i := range r.Apps {
		larger += r.LargerRed[i] / float64(len(r.Apps))
		bf += r.BabelFishRed[i] / float64(len(r.Apps))
	}
	b.ReportMetric(larger, "largerTLB-red-%")
	b.ReportMetric(bf, "babelfish-red-%")
}

// BenchmarkBringup regenerates the docker-start measurement (paper: −8%).
func BenchmarkBringup(b *testing.B) {
	var r *experiments.BringupResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Bringup(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.ReductionPct, "bringup-red-%")
}

// BenchmarkResources regenerates the §VII-D resource analysis (paper:
// 0.4% core area, 0.238% memory space).
func BenchmarkResources(b *testing.B) {
	var r *experiments.ResourcesResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Resources(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.AreaPct, "area-overhead-%")
	b.ReportMetric(r.TotalPct, "space-overhead-%")
}

// --- Ablation benches for DESIGN.md's design-choice list. ---

// BenchmarkAblationASLRMode compares ASLR-HW (per-process layouts, 2-cycle
// transform, no L1 sharing) against ASLR-SW (per-group layouts).
func BenchmarkAblationASLRMode(b *testing.B) {
	run := func(arch Arch) float64 {
		m := NewMachine(Options{Arch: arch, Cores: 1})
		d, err := DeployApp(m, HTTPd, 0.25, 3)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 2; j++ {
			if _, _, err := d.Spawn(0, uint64(j)); err != nil {
				b.Fatal(err)
			}
		}
		if err := d.PrefaultAll(); err != nil {
			b.Fatal(err)
		}
		if err := m.Run(150_000); err != nil {
			b.Fatal(err)
		}
		m.ResetStats()
		if err := m.Run(300_000); err != nil {
			b.Fatal(err)
		}
		return d.MeanLatency()
	}
	var hw, sw float64
	for i := 0; i < b.N; i++ {
		hw = run(ArchBabelFish)
		sw = run(ArchBabelFishSW)
	}
	b.ReportMetric(hw, "aslr-hw-meanlat")
	b.ReportMetric(sw, "aslr-sw-meanlat")
}

// BenchmarkAblationShareLevel compares PTE-table sharing (default)
// against PMD-level merging for huge read-only file mappings.
func BenchmarkAblationShareLevel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := kernel.DefaultConfig(kernel.ModeBabelFish)
		k := kernel.New(physmem.New(512<<20), cfg)
		g := k.NewGroup("app", 1)
		p1, err := k.CreateProcess(g, "c1")
		if err != nil {
			b.Fatal(err)
		}
		f := k.MustCreateHugeFile("huge", 2048)
		r := g.MustRegion("huge", kernel.SegMmap, 2048)
		v := p1.MustMapFile(r, f, 0, memdefs.PermRead|memdefs.PermUser, false, "huge")
		v.Huge = true
		p2, _, err := k.Fork(p1, "c2")
		if err != nil {
			b.Fatal(err)
		}
		for off := memdefs.VAddr(0); off < 4; off++ {
			gva := r.Start + off*memdefs.HugePageSize2M
			if _, err := k.HandleFault(p1.PID, p1.ProcVA(gva), false, memdefs.AccessData); err != nil {
				b.Fatal(err)
			}
			if _, err := k.HandleFault(p2.PID, p2.ProcVA(gva), false, memdefs.AccessData); err != nil {
				b.Fatal(err)
			}
		}
		if p1.Tables.TableAt(r.Start, memdefs.LvlPMD) != p2.Tables.TableAt(r.Start, memdefs.LvlPMD) {
			b.Fatal("PMD tables not merged")
		}
	}
}

// BenchmarkAblationCoWGranularity measures the paper's choice of copying
// a whole page of 512 pte_t on a CoW event versus the bookkeeping of one
// entry: it reports the cycles of the first CoW event (which pays the
// PTE-page copy) and of a second event in the same region (which does
// not).
func BenchmarkAblationCoWGranularity(b *testing.B) {
	var first, second memdefs.Cycles
	for i := 0; i < b.N; i++ {
		k := kernel.New(physmem.New(256<<20), kernel.DefaultConfig(kernel.ModeBabelFish))
		g := k.NewGroup("app", 1)
		p1, _ := k.CreateProcess(g, "c1")
		f := k.MustCreateFile("data", 64)
		r := g.MustRegion("data", kernel.SegData, 64)
		p1.MustMapFile(r, f, 0, memdefs.PermRead|memdefs.PermWrite|memdefs.PermUser, true, "data")
		p2, _, err := k.Fork(p1, "c2")
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 4; j++ {
			gva := r.Start + memdefs.VAddr(j)*memdefs.PageSize
			k.HandleFault(p1.PID, p1.ProcVA(gva), false, memdefs.AccessData)
			k.HandleFault(p2.PID, p2.ProcVA(gva), false, memdefs.AccessData)
		}
		first, err = k.HandleFault(p2.PID, p2.ProcVA(r.Start), true, memdefs.AccessData)
		if err != nil {
			b.Fatal(err)
		}
		second, err = k.HandleFault(p2.PID, p2.ProcVA(r.Start+memdefs.PageSize), true, memdefs.AccessData)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(first), "first-cow-cycles")
	b.ReportMetric(float64(second), "second-cow-cycles")
}

// BenchmarkAblationORPC measures the ORPC fast path: the fraction of L2
// TLB lookups that had to read the PC bitmask, with and without CoW
// writers in the group.
func BenchmarkAblationORPC(b *testing.B) {
	var checks, accesses uint64
	for i := 0; i < b.N; i++ {
		m := NewMachine(Options{Arch: ArchBabelFish, Cores: 1})
		d, err := DeployApp(m, MongoDB, 0.1, 4)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 2; j++ {
			if _, _, err := d.Spawn(0, uint64(j)); err != nil {
				b.Fatal(err)
			}
		}
		if err := d.PrefaultAll(); err != nil {
			b.Fatal(err)
		}
		if err := m.Run(200_000); err != nil {
			b.Fatal(err)
		}
		st := m.Cores[0].MMU.L2.Stats()
		checks += st.MaskChecks
		accesses += st.Accesses
	}
	if accesses > 0 {
		b.ReportMetric(100*float64(checks)/float64(accesses), "mask-check-%")
	}
}

// BenchmarkTLBLookup microbenchmarks the Figure-8 lookup itself.
func BenchmarkTLBLookup(b *testing.B) {
	t := tlb.New(tlb.Config{
		Name: "l2", Entries: 1536, Ways: 12, Size: memdefs.Page4K,
		Mode: tlb.TagCCID, AccessTime: 10, AccessTimeMask: 12,
	})
	for i := 0; i < 1536; i++ {
		t.Insert(tlb.Entry{
			VPN: memdefs.VPN(i * 7), PPN: memdefs.PPN(i), PCID: 1, CCID: 1,
			Perm: memdefs.PermRead | memdefs.PermUser, BroughtBy: 1,
		})
	}
	q := tlb.Lookup{PCID: 2, CCID: 1, PID: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.VPN = memdefs.VPN((i % 1536) * 7)
		t.LookupEntry(q)
	}
}

// BenchmarkTranslateWalk microbenchmarks a full machine translation,
// walk included.
func BenchmarkTranslateWalk(b *testing.B) {
	b.ReportAllocs()
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
	gen := workloads.NewBringUp(d.Env(proc), 2)
	task := m.AddTask(0, proc, gen)
	b.ResetTimer()
	var step sim.Step
	for i := 0; i < b.N; i++ {
		if !gen.Next(&step) {
			b.StopTimer()
			gen = workloads.NewBringUp(d.Env(proc), uint64(i))
			b.StartTimer()
			continue
		}
		if _, _, _, err := m.Cores[0].MMU.Translate(task.Ctx(), step.VA, step.Write, step.Kind); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationVariants compares the full design against the paper's
// documented alternatives (ASLR-SW §IV-D, no-PC-bitmask §VII-D,
// PMD-level sharing §III-B) on MongoDB.
func BenchmarkAblationVariants(b *testing.B) {
	var r *experiments.VariantsResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Variants(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range r.Rows {
		if row.Variant == "baseline" {
			continue
		}
		// Attach each variant's gain as a metric.
		name := strings.NewReplacer(" ", "", "(", "-", ")", "", "babelfish", "bf").Replace(row.Variant)
		b.ReportMetric(row.RedPct, name+"-red-%")
	}
}

// BenchmarkAblationColocation reports the density sweep (1..6 containers
// per core): BabelFish's gain must grow with co-location.
func BenchmarkAblationColocation(b *testing.B) {
	var r *experiments.SweepResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.SweepColocation(benchOpts(), []int{1, 4})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.RedPct[0], "red-1-per-core-%")
	b.ReportMetric(r.RedPct[len(r.RedPct)-1], "red-4-per-core-%")
}

// --- Hot-path microbenchmarks (simulator performance itself). ---

// BenchmarkFaultMinor measures the kernel's demand-fault path.
func BenchmarkFaultMinor(b *testing.B) {
	k := kernel.New(physmem.New(2<<30), kernel.DefaultConfig(kernel.ModeBabelFish))
	g := k.NewGroup("app", 1)
	p, err := k.CreateProcess(g, "p")
	if err != nil {
		b.Fatal(err)
	}
	pages := b.N
	if pages < 1 {
		pages = 1
	}
	if pages > 100_000 {
		pages = 100_000
	}
	f := k.MustCreateFile("data", pages)
	r := g.MustRegion("data", kernel.SegMmap, pages)
	p.MustMapFile(r, f, 0, memdefs.PermRead|memdefs.PermUser, true, "data")
	if err := f.Prefault(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gva := r.PageVA(i % pages)
		if _, err := k.HandleFault(p.PID, p.ProcVA(gva), false, memdefs.AccessData); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFork measures fork of one populated template on both kernels:
// the baseline copies every present leaf, BabelFish links the template's
// shared tables.
func BenchmarkFork(b *testing.B) {
	for _, mode := range []kernel.Mode{kernel.ModeBaseline, kernel.ModeBabelFish} {
		b.Run(mode.String(), func(b *testing.B) {
			k := kernel.New(physmem.New(2<<30), kernel.DefaultConfig(mode))
			g := k.NewGroup("app", 1)
			tmpl, err := k.CreateProcess(g, "tmpl")
			if err != nil {
				b.Fatal(err)
			}
			f := k.MustCreateFile("data", 4096)
			r := g.MustRegion("data", kernel.SegMmap, 4096)
			tmpl.MustMapFile(r, f, 0, memdefs.PermRead|memdefs.PermUser, true, "data")
			if err := f.Prefault(); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 4096; i += 64 {
				if _, err := k.HandleFault(tmpl.PID, tmpl.ProcVA(r.PageVA(i)), false, memdefs.AccessData); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, _, err := k.Fork(tmpl, "c")
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				c.Exit()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkTelemetry measures the simulation cost of the telemetry
// layer: "off" is the default path (registry registered, nothing
// observed), "on" adds histogram observation per access plus registry
// sampling every 100k cycles. The off/on gap is the overhead budget the
// telemetry design promises to keep near zero.
func BenchmarkTelemetry(b *testing.B) {
	run := func(b *testing.B, sampleEvery uint64, enable bool) {
		m := NewMachine(Options{Arch: ArchBabelFish, Cores: 1, Mem: 512 << 20})
		if enable {
			m.EnableTelemetry(sampleEvery)
		}
		d, err := DeployApp(m, MongoDB, 0.1, 1)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := d.Spawn(0, 1); err != nil {
			b.Fatal(err)
		}
		if err := d.PrefaultAll(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := m.Run(200_000); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, 0, false) })
	b.Run("on", func(b *testing.B) { run(b, 100_000, true) })
}

// BenchmarkCacheAccess measures one data access through the cache
// hierarchy: "hit" repeats one L1-resident line; "miss" cycles through
// four times the L3's capacity in lines, so every access misses the L1D,
// L2 and L3 and is served by DRAM.
func BenchmarkCacheAccess(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		m := NewMachine(Options{Arch: ArchBaseline, Cores: 1, Mem: 256 << 20})
		h := m.Cores[0].Hier
		h.Data(0x1000, false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Data(0x1000, false)
		}
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		m := NewMachine(Options{Arch: ArchBaseline, Cores: 1, Mem: 256 << 20})
		h := m.Cores[0].Hier
		lines := 4 * m.Params.L3.SizeBytes / 64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, where := h.Data(memdefs.PAddr(i%lines)*64, false); where != memsys.WhereMem {
				b.Fatalf("access %d served at %v, want Mem", i, where)
			}
		}
	})
}

// BenchmarkZipf measures the YCSB zipfian draw.
func BenchmarkZipf(b *testing.B) {
	rng := workloads.NewRNG(1)
	z := ycsb.NewZipf(100_000, 0.99)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Draw(rng.Float64())
	}
}
