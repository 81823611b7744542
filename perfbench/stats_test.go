package main

import (
	"math"
	"sort"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The reference values are Python's statistics.quantiles(data, n=4) and
// statistics.median, which a reader uses to recompute the spreads.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{7}, [3]float64{7, 7, 7}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 20, 30, 40, 50, 60, 70}, [3]float64{20, 40, 60}},
		{[]float64{1.5, 2.5, 9, 4, 7, 7, 3, 100}, [3]float64{2.625, 5.5, 8.5}},
	} {
		s := summarize(c.data)
		if !near(s.Q1, c.want[0]) || !near(s.P50, c.want[1]) || !near(s.Q3, c.want[2]) {
			t.Errorf("%v: quartiles %v %v %v, want %v", c.data, s.Q1, s.P50, s.Q3, c.want)
		}
		if m := median(c.data); !near(m, c.want[1]) {
			t.Errorf("%v: median %v, want %v", c.data, m, c.want[1])
		}
		if s.N != len(c.data) {
			t.Errorf("%v: count %d", c.data, s.N)
		}
	}
}

func TestSummarizeLeavesInputAlone(t *testing.T) {
	xs := []float64{3, 1, 2}
	summarize(xs)
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input reordered: %v", xs)
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so summarize must sort
		}
		return xs
	}
	for _, c := range []struct {
		n        int
		value    float64
		pct      float64
		beyondOK bool
	}{
		{n: 1, value: 1, pct: 100},
		{n: 10, value: 10, pct: 100}, // no sample has ten beyond it: the maximum
		{n: 11, value: 1, pct: 100.0 / 11, beyondOK: true},
		{n: 100, value: 90, pct: 90, beyondOK: true},
		{n: 1000, value: 990, pct: 99, beyondOK: true},
		{n: 3000, value: 2990, pct: 100 * 2990.0 / 3000, beyondOK: true},
	} {
		s := summarize(ramp(c.n))
		if !near(s.Tail, c.value) || !near(s.TailPct, c.pct) || s.N != c.n {
			t.Errorf("n=%d: tail %v at p%v of %d, want %v at p%v", c.n, s.Tail, s.TailPct, s.N, c.value, c.pct)
		}
		if c.beyondOK {
			sorted := ramp(c.n)
			sort.Float64s(sorted)
			beyond := 0
			for _, x := range sorted {
				if x > s.Tail {
					beyond++
				}
			}
			if beyond != tailBeyond {
				t.Errorf("n=%d: %d samples beyond the tail, want %d", c.n, beyond, tailBeyond)
			}
		}
	}
	if s := summarize(nil); s.N != 0 || s.Tail != 0 {
		t.Errorf("empty: %+v", s)
	}
}
