package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

// fullReport builds a report exercising every schema field.
func fullReport() *Report {
	reg := NewRegistry()
	n := uint64(41)
	reg.Counter("mmu.walks", "walk", "page walks", func() uint64 { return n })
	reg.Gauge("xlat.mpki", "mpki", "misses per kilo-instruction", func() float64 { return 1.5 })
	h := reg.Histogram("xlat.latency", "cyc", "translation latency")
	h.Observe(1)
	h.Observe(12)
	h.Observe(900)
	s := NewSampler(reg, 100)
	s.Tick(100)
	n = 42
	s.Tick(250)

	rep := NewReport("bfsim", map[string]string{"app": "mongodb", "arch": "both"})
	for _, arch := range []string{"baseline", "babelfish"} {
		rep.AddArch(reg.Dump(arch, s))
	}
	return rep
}

func TestReportRoundTrip(t *testing.T) {
	rep := fullReport()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.SchemaVersion != SchemaVersion || got.Tool != "bfsim" {
		t.Fatalf("header: %+v", got)
	}
	if got.Config["app"] != "mongodb" {
		t.Fatalf("config: %+v", got.Config)
	}
	a, ok := got.Arch("babelfish")
	if !ok {
		t.Fatal("babelfish arch missing")
	}
	if v, ok := a.Metric("mmu.walks"); !ok || v != 42 {
		t.Fatalf("mmu.walks = %v, %v", v, ok)
	}
	hd, ok := a.Histogram("xlat.latency")
	if !ok || hd.Count != 3 || hd.P99 == 0 {
		t.Fatalf("histogram: %+v", hd)
	}
	if a.Series == nil || len(a.Series.Samples) != 2 || a.Series.Samples[1].Values[0] != 42 {
		t.Fatalf("series: %+v", a.Series)
	}
}

func TestReportRejectsUnknownVersion(t *testing.T) {
	in := strings.NewReader(`{"schemaVersion": 999, "tool": "bfsim", "config": {}, "archs": []}`)
	if _, err := ReadReport(in); err == nil {
		t.Fatal("unknown schema version accepted")
	}
}
