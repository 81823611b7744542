package main

import "sort"

// tailBeyond is how many samples must lie beyond a reported tail value.
const tailBeyond = 10

// summary is the distribution of one timed quantity.
type summary struct {
	N       int     // sample count
	P50     float64 // median
	Q1, Q3  float64 // first and third quartiles
	Tail    float64 // tail value (see tail)
	TailPct float64 // percentile the tail value sits at
}

// summarize computes the distribution of xs (left unmodified).
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := quartiles(s)
	out := summary{N: len(s), Q1: q[0], P50: q[1], Q3: q[2]}
	out.Tail, out.TailPct = tail(s)
	return out
}

// median returns the middle value of xs (mean of the two middle values
// for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quartiles(s)[1]
}

// quartiles returns Q1, median and Q3 of sorted data with the integer
// arithmetic of Python's statistics.quantiles(data, n=4) (its default
// "exclusive" method, which extrapolates past the ends of small
// samples), so spreads computed here match the ones a reader recomputes
// in Python. A single sample is its own quartiles.
func quartiles(sorted []float64) [3]float64 {
	ld := len(sorted)
	if ld == 1 {
		return [3]float64{sorted[0], sorted[0], sorted[0]}
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		q[i-1] = (sorted[j-1]*float64(n-delta) + sorted[j]*float64(delta)) / n
	}
	return q
}

// tail returns the highest-percentile sample that still has tailBeyond
// samples above it, and that sample's percentile rank (the share of
// samples at or below its position). With tailBeyond or fewer samples no
// such value exists and the maximum is reported at percentile 100.
func tail(sorted []float64) (value, pct float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	if n <= tailBeyond {
		return sorted[n-1], 100
	}
	k := n - tailBeyond // 1-based rank of the tail sample
	return sorted[k-1], 100 * float64(k) / float64(n)
}
