package telemetry

import (
	"testing"
	"testing/quick"
)

func TestSamplesBasics(t *testing.T) {
	var s Samples
	if s.Mean() != 0 || s.Percentile(95) != 0 || s.Count() != 0 || s.Max() != 0 {
		t.Fatal("empty recorder not zero")
	}
	for i := uint64(1); i <= 100; i++ {
		s.Add(i)
	}
	if s.Count() != 100 {
		t.Fatalf("count = %d", s.Count())
	}
	if got := s.Mean(); got != 50.5 {
		t.Fatalf("mean = %v", got)
	}
	if got := s.Percentile(50); got != 50 {
		t.Fatalf("p50 = %v", got)
	}
	if got := s.Percentile(95); got != 95 {
		t.Fatalf("p95 = %v", got)
	}
	if s.Max() != 100 || s.Percentile(0) != 1 {
		t.Fatalf("min/max = %v/%v", s.Percentile(0), s.Max())
	}
}

func TestSamplesAddAfterPercentile(t *testing.T) {
	var s Samples
	s.Add(10)
	s.Add(20)
	_ = s.Percentile(50) // sorts
	s.Add(5)
	if got := s.Percentile(0); got != 5 {
		t.Fatalf("min after late add = %v", got)
	}
}

func TestSamplesMergeReset(t *testing.T) {
	var a, b Samples
	a.Add(1)
	b.Add(3)
	a.Merge(&b)
	if a.Count() != 2 || a.Mean() != 2 {
		t.Fatalf("merge: count=%d mean=%v", a.Count(), a.Mean())
	}
	var seen uint64
	a.Each(func(v uint64) { seen += v })
	if seen != 4 {
		t.Fatalf("Each visited sum %d, want 4", seen)
	}
	a.Reset()
	if a.Count() != 0 || a.Mean() != 0 {
		t.Fatal("reset failed")
	}
}

// TestSamplesMeanMatchesFloatSum: cycle samples are integers whose sums
// stay far below 2^53, so the integer-summed mean equals a mean summed
// in float64 bit for bit.
func TestSamplesMeanMatchesFloatSum(t *testing.T) {
	f := func(vals []uint32) bool {
		var s Samples
		var fsum float64
		for _, v := range vals {
			s.Add(uint64(v))
			fsum += float64(v)
		}
		if len(vals) == 0 {
			return s.Mean() == 0
		}
		return s.Mean() == fsum/float64(len(vals))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSamplesPercentileInvariantsQuick(t *testing.T) {
	f := func(vals []uint64) bool {
		var s Samples
		for _, v := range vals {
			// Latencies are cycle counts: keep inputs in a physical range
			// (the running sum is not built for near-2^64 extremes).
			s.Add(v % 1e12)
		}
		if s.Count() == 0 {
			return true
		}
		// Percentiles are monotone and bounded by min/max.
		lo := s.Percentile(0)
		prev := lo
		for p := 10.0; p <= 100; p += 10 {
			cur := s.Percentile(p)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return float64(lo) <= s.Mean() && s.Mean() <= float64(s.Max())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
