package sim

import (
	"testing"

	"babelfish/internal/kernel"
	"babelfish/internal/obs"
)

// TestTraceAndHistogramAgree: the telemetry histograms and the obs fault
// spans hang off the same instrumentation seam, so with both enabled
// they must observe exactly the events the MMU counts.
func TestTraceAndHistogramAgree(t *testing.T) {
	m := testMachine(t, kernel.ModeBaseline, 1)
	rec := obs.NewRecorder(1, 0, 1<<16)
	m.EnableObs(rec, -1)
	reg := m.EnableTelemetry(0)
	g := m.Kernel.NewGroup("app", 1)
	p, gvas := setupProc(t, m, g, 16)
	m.AddTask(0, p, &seqGen{proc: p, gvas: gvas, limit: 2000})
	if err := m.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	translations, _ := reg.Value("mmu.translations")
	if translations == 0 {
		t.Fatal("no translations counted")
	}
	if got := m.XlatHist().Count(); float64(got) != translations {
		t.Fatalf("xlat histogram saw %d events, mmu.translations = %v", got, translations)
	}
	if rec.Total() > uint64(rec.Len()) {
		t.Fatalf("span ring wrapped (%d of %d kept); raise its depth", rec.Len(), rec.Total())
	}
	var faultSpans uint64
	for _, s := range rec.Spans() {
		if s.Kind == obs.KFault {
			faultSpans++
		}
	}
	if faultSpans == 0 {
		t.Fatal("no fault spans recorded (demand paging must fault)")
	}
	if got := m.FaultHist().Count(); got != faultSpans {
		t.Fatalf("fault histogram saw %d events, recorder holds %d fault spans", got, faultSpans)
	}
	if m.XlatHist().Max() == 0 || m.FaultHist().Sum() == 0 {
		t.Fatal("histograms recorded no latency")
	}
}

// TestSamplerCollectsTimeSeries: cycle-driven sampling produces one row per
// crossed boundary, with one column per registered metric.
func TestSamplerCollectsTimeSeries(t *testing.T) {
	m := testMachine(t, kernel.ModeBabelFish, 1)
	m.EnableTelemetry(10_000)
	g := m.Kernel.NewGroup("app", 1)
	p, gvas := setupProc(t, m, g, 16)
	m.AddTask(0, p, &seqGen{proc: p, gvas: gvas})
	if err := m.Run(100_000); err != nil {
		t.Fatal(err)
	}
	sam := m.Sampler()
	if sam == nil {
		t.Fatal("sampler not installed")
	}
	if sam.Len() < 2 {
		t.Fatalf("only %d samples over a >=10-boundary run", sam.Len())
	}
	ser := sam.Series()
	if len(ser.Names) != m.Registry.Len() {
		t.Fatalf("series has %d columns, registry has %d metrics", len(ser.Names), m.Registry.Len())
	}
	for i, s := range ser.Samples {
		if len(s.Values) != len(ser.Names) {
			t.Fatalf("sample %d has %d values", i, len(s.Values))
		}
		if i > 0 && s.Cycle <= ser.Samples[i-1].Cycle {
			t.Fatalf("sample cycles not increasing: %d then %d", ser.Samples[i-1].Cycle, s.Cycle)
		}
	}
	// Instruction counts are monotonic across the series.
	col := -1
	for i, n := range ser.Names {
		if n == "sim.instrs" {
			col = i
		}
	}
	if col < 0 {
		t.Fatal("sim.instrs not in series")
	}
	last := ser.Samples[len(ser.Samples)-1]
	if last.Values[col] == 0 {
		t.Fatal("final sample shows zero instructions")
	}
}

// TestRegistryMatchesAggregate: the pull probes read the same counters the
// existing Aggregate() rollup reads.
func TestRegistryMatchesAggregate(t *testing.T) {
	m := testMachine(t, kernel.ModeBaseline, 1)
	g := m.Kernel.NewGroup("app", 1)
	p, gvas := setupProc(t, m, g, 16)
	m.AddTask(0, p, &seqGen{proc: p, gvas: gvas, limit: 2000})
	if err := m.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	ag := m.Aggregate()
	for _, tc := range []struct {
		name string
		want uint64
	}{
		{"sim.instrs", ag.Instrs},
		{"mmu.walks", ag.Walks},
		{"mmu.faults", ag.Faults},
	} {
		v, ok := m.Registry.Value(tc.name)
		if !ok {
			t.Fatalf("%s not registered", tc.name)
		}
		if uint64(v) != tc.want {
			t.Fatalf("%s = %v, aggregate says %d", tc.name, v, tc.want)
		}
	}
	// Counters() is now a view over the registry; it must agree with the
	// kernel's own stats.
	cnt, err := m.Counters()
	if err != nil {
		t.Fatal(err)
	}
	ks := m.Kernel.Stats()
	if cnt.OOMEvents != ks.OOMEvents || cnt.ReclaimedPages != ks.Reclaimed {
		t.Fatalf("Counters() diverges from kernel stats: %+v vs %+v", cnt, ks)
	}
	if cnt.OOMKills != m.OOMKills() || cnt.InjectedFaults != m.Mem.InjectedFaults() {
		t.Fatalf("Counters() diverges from machine state: %+v", cnt)
	}
}

// TestResetStatsClearsTelemetry: histograms and the time series restart at
// the measurement boundary along with every other stat.
func TestResetStatsClearsTelemetry(t *testing.T) {
	m := testMachine(t, kernel.ModeBaseline, 1)
	m.EnableTelemetry(10_000)
	g := m.Kernel.NewGroup("app", 1)
	p, gvas := setupProc(t, m, g, 8)
	m.AddTask(0, p, &seqGen{proc: p, gvas: gvas})
	if err := m.Run(50_000); err != nil {
		t.Fatal(err)
	}
	if m.XlatHist().Count() == 0 || m.Sampler().Len() == 0 {
		t.Fatal("warmup collected nothing")
	}
	m.ResetStats()
	if m.XlatHist().Count() != 0 || m.FaultHist().Count() != 0 {
		t.Fatal("histograms survive ResetStats")
	}
	if m.Sampler().Len() != 0 {
		t.Fatal("time series survives ResetStats")
	}
	if err := m.Run(50_000); err != nil {
		t.Fatal(err)
	}
	if m.XlatHist().Count() == 0 || m.Sampler().Len() == 0 {
		t.Fatal("telemetry dead after ResetStats")
	}
}

// TestTelemetryReportShape: a machine's per-arch report section carries the
// full registry, both histograms and the time series.
func TestTelemetryReportShape(t *testing.T) {
	m := testMachine(t, kernel.ModeBabelFish, 1)
	m.EnableTelemetry(10_000)
	g := m.Kernel.NewGroup("app", 1)
	p, gvas := setupProc(t, m, g, 16)
	m.AddTask(0, p, &seqGen{proc: p, gvas: gvas})
	if err := m.Run(100_000); err != nil {
		t.Fatal(err)
	}
	a := m.TelemetryReport("babelfish")
	if a.Arch != "babelfish" || len(a.Metrics) != m.Registry.Len() {
		t.Fatalf("report header: arch=%q metrics=%d", a.Arch, len(a.Metrics))
	}
	var haveXlat, haveFault bool
	for _, h := range a.Histograms {
		switch h.Name {
		case HistXlatLatency:
			haveXlat = h.Count > 0 && h.P99 >= h.P50
		case HistFaultCost:
			haveFault = h.Count > 0
		}
	}
	if !haveXlat || !haveFault {
		t.Fatalf("histogram dumps incomplete: %+v", a.Histograms)
	}
	if a.Series == nil || len(a.Series.Samples) < 2 {
		t.Fatal("time series missing from report")
	}
}
