package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
)

func sinkRegistry() (*Registry, *uint64) {
	reg := NewRegistry()
	var hits uint64
	reg.Counter("tlb.l1_hits", "count", "L1 TLB hits", func() uint64 { return hits })
	reg.Gauge("sim.mpki", "misses/1k", "", func() float64 { return float64(hits) / 2 })
	return reg, &hits
}

func TestJSONLSinkStream(t *testing.T) {
	reg, hits := sinkRegistry()
	sp := NewSampler(reg, 100)
	var buf bytes.Buffer
	if err := sp.SetSink(NewJSONLSink(&buf, "bfsim")); err != nil {
		t.Fatal(err)
	}
	*hits = 4
	sp.Tick(100)
	*hits = 10
	sp.Tick(250)
	if err := sp.FlushSink(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want header + 2 samples", len(lines))
	}
	if lines[0]["type"] != "series-header" || lines[0]["tool"] != "bfsim" {
		t.Fatalf("header = %v", lines[0])
	}
	names, _ := lines[0]["names"].([]any)
	if len(names) != 2 || names[0] != "tlb.l1_hits" {
		t.Fatalf("header names = %v", names)
	}
	if lines[1]["type"] != "sample" || lines[1]["cycle"].(float64) != 100 {
		t.Fatalf("row 1 = %v", lines[1])
	}
	vals, _ := lines[2]["values"].([]any)
	if vals[0].(float64) != 10 || vals[1].(float64) != 5 {
		t.Fatalf("row 2 values = %v", vals)
	}
	// The in-memory series is unaffected by the sink.
	if sp.Len() != 2 {
		t.Fatalf("sampler kept %d samples", sp.Len())
	}
}

type failSink struct{ begun bool }

func (f *failSink) Begin(*Registry, uint64) error { f.begun = true; return nil }
func (f *failSink) Emit(Sample) error             { return errors.New("disk full") }
func (f *failSink) Flush() error                  { return nil }

func TestSinkEmitErrorLatched(t *testing.T) {
	reg, _ := sinkRegistry()
	sp := NewSampler(reg, 10)
	fs := &failSink{}
	if err := sp.SetSink(fs); err != nil || !fs.begun {
		t.Fatalf("SetSink err=%v begun=%v", err, fs.begun)
	}
	sp.Tick(10)
	sp.Tick(20)
	if err := sp.FlushSink(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("FlushSink err = %v", err)
	}
	// Samples still accumulate despite the failing sink.
	if sp.Len() != 2 {
		t.Fatalf("sampler kept %d samples", sp.Len())
	}
	// Detaching clears the latched error.
	if err := sp.SetSink(nil); err != nil {
		t.Fatal(err)
	}
	if err := sp.FlushSink(); err != nil {
		t.Fatalf("detached FlushSink err = %v", err)
	}
}

// TestHistQuantileEdges pins quantile behaviour in the corners the
// report path can hit: an empty histogram, all mass in one bucket, and
// counts near saturation.
func TestHistQuantileEdges(t *testing.T) {
	empty := NewHist("e", "", "")
	for _, q := range []float64{0.5, 0.9, 0.99, 1} {
		if v := empty.Quantile(q); v != 0 {
			t.Fatalf("empty hist q%.2f = %v", q, v)
		}
	}
	if empty.Mean() != 0 || empty.Max() != 0 {
		t.Fatal("empty hist mean/max nonzero")
	}

	// Single bucket: every observation is the value 7 (bucket [4,7]).
	single := NewHist("s", "", "")
	for i := 0; i < 1000; i++ {
		single.Observe(7)
	}
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		v := single.Quantile(q)
		if v < 4 || v > 7 {
			t.Fatalf("single-bucket q%.2f = %v outside [4,7]", q, v)
		}
	}
	// Interpolation is capped at the observed max, never the bucket edge.
	if v := single.Quantile(1); v != 7 {
		t.Fatalf("q1.0 = %v, want the max 7", v)
	}

	// Saturating counts: sums near uint64 max must not overflow the rank
	// arithmetic into nonsense quantiles.
	sat := NewHist("sat", "", "")
	sat.Observe(math.MaxUint64)
	sat.Observe(math.MaxUint64)
	sat.Observe(1)
	if v := sat.Quantile(0.99); v < 1 {
		t.Fatalf("saturating q99 = %v", v)
	}
	if sat.Max() != math.MaxUint64 {
		t.Fatalf("max = %d", sat.Max())
	}
	if v := sat.Quantile(0.01); v != 1 {
		t.Fatalf("saturating q01 = %v, want 1", v)
	}
	// Quantile must stay finite and within the observed range.
	if v := sat.Quantile(1); math.IsInf(v, 0) || math.IsNaN(v) || v > math.MaxUint64 {
		t.Fatalf("saturating q1.0 = %v", v)
	}
}

// TestDiffDisjoint: snapshots over disjoint metric sets produce an
// empty diff (the comparison is only defined on the common registry)
// and partially overlapping sets compare only the overlap.
func TestDiffDisjoint(t *testing.T) {
	mk := func(label string, vals map[string]float64) *Snapshot {
		s := &Snapshot{Label: label}
		for n, v := range vals {
			s.Values = append(s.Values, MetricValue{Name: n, Value: v})
		}
		return s
	}
	a := mk("a", map[string]float64{"x.only_a": 1, "x.shared": 10})
	b := mk("b", map[string]float64{"x.only_b": 2, "x.shared": 4})
	d := Diff(a, b)
	if len(d.Rows) != 1 {
		t.Fatalf("diff rows = %+v, want only the shared metric", d.Rows)
	}
	r, ok := d.Row("x.shared")
	if !ok || r.A != 10 || r.B != 4 || r.Delta != -6 {
		t.Fatalf("shared row = %+v", r)
	}
	if _, ok := d.Row("x.only_a"); ok {
		t.Fatal("metric absent from b leaked into the diff")
	}
	// Fully disjoint: no rows, and String still renders a valid table.
	d2 := Diff(mk("a", map[string]float64{"m.a": 1}), mk("b", map[string]float64{"m.b": 1}))
	if len(d2.Rows) != 0 {
		t.Fatalf("disjoint diff rows = %+v", d2.Rows)
	}
	if !strings.Contains(d2.String(), "a vs b") {
		t.Fatal("empty diff table missing labels")
	}
}
