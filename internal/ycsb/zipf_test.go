package ycsb

import (
	"math"
	"sync"
	"testing"
)

// refZipf is the sampler Zipf replaced, kept verbatim as the reference:
// it re-evaluated math.Pow(0.5, theta) on every draw. Both workloads and
// ycsb carried a copy of it with the same float operations.
type refZipf struct {
	n     int
	theta float64
	alpha float64
	zetan float64
	eta   float64
	zeta2 float64
}

func newRefZipf(n int, theta float64) *refZipf {
	if n < 1 {
		n = 1
	}
	z := &refZipf{n: n, theta: theta}
	z.zetan = zetaSum(n, theta)
	z.zeta2 = zetaSum(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

func (z *refZipf) draw(u float64) int {
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	idx := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if idx >= z.n {
		idx = z.n - 1
	}
	if idx < 0 {
		idx = 0
	}
	return idx
}

// refCases are the (n, theta) pairs the sampler is pinned on: the
// degenerate n = 0, 1 and 2 keyspaces, the thetas the workloads use, and
// one theta above 1.
var refCases = []struct {
	n     int
	theta float64
}{
	{0, 0.99}, {1, 0.99}, {2, 0.99}, {2, 0.5}, {3, 0.97},
	{1000, 0.99}, {4096, 0.97}, {100_000, 0.8}, {50, 1.5},
}

// TestZipfMatchesReference: hoisting the loop-invariant constant and
// memoising zeta must leave every draw bit-identical to the reference,
// which sums zeta afresh.
func TestZipfMatchesReference(t *testing.T) {
	const draws = 100_000
	for _, tc := range refCases {
		got, want := NewZipf(tc.n, tc.theta), newRefZipf(tc.n, tc.theta)
		r := rng{s: uint64(tc.n)*31 + 7}
		for i := 0; i < draws; i++ {
			u := r.float()
			if g, w := got.Draw(u), want.draw(u); g != w {
				t.Fatalf("n=%d theta=%v draw %d (u=%v): got %d, reference %d", tc.n, tc.theta, i, u, g, w)
			}
		}
	}
}

// TestZetaMemoBitIdentical: a memoised zeta, read on a miss and again on a
// hit, has the same bits as the direct sum.
func TestZetaMemoBitIdentical(t *testing.T) {
	for _, tc := range refCases {
		n := tc.n
		if n < 1 {
			n = 1 // NewZipf's clamp
		}
		want := math.Float64bits(zetaSum(n, tc.theta))
		for i := 0; i < 2; i++ {
			if got := math.Float64bits(zeta(n, tc.theta)); got != want {
				t.Fatalf("n=%d theta=%v call %d: zeta bits %#x, direct sum %#x", n, tc.theta, i, got, want)
			}
		}
	}
}

// TestZetaMemoConcurrent builds samplers from 8 goroutines on overlapping
// keys; run under -race it checks the memo is safe to share, and every
// sampler must equal one built afresh.
func TestZetaMemoConcurrent(t *testing.T) {
	sizes := []int{17, 513, 2049, 4099}
	thetas := []float64{0.61, 0.83, 0.97}
	var wg sync.WaitGroup
	got := make([][]Zipf, 8)
	for w := range got {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < len(sizes)*len(thetas); i++ {
				// Each worker starts at a different key and wraps round.
				j := (i + w) % (len(sizes) * len(thetas))
				got[w] = append(got[w], *NewZipf(sizes[j/len(thetas)], thetas[j%len(thetas)]))
			}
		}(w)
	}
	wg.Wait()
	for w, zs := range got {
		for i, z := range zs {
			j := (i + w) % (len(sizes) * len(thetas))
			n, theta := sizes[j/len(thetas)], thetas[j%len(thetas)]
			if math.Float64bits(z.zetan) != math.Float64bits(zetaSum(n, theta)) {
				t.Fatalf("worker %d: n=%d theta=%v zetan %v, direct sum %v", w, n, theta, z.zetan, zetaSum(n, theta))
			}
		}
	}
}

// TestZetaMemoNaNOneEntry: a NaN theta is keyed by its bits, so repeated
// NaN calls reuse one entry instead of adding one per call.
func TestZetaMemoNaNOneEntry(t *testing.T) {
	memoLen := func() int {
		zetaMemo.Lock()
		defer zetaMemo.Unlock()
		return len(zetaMemo.m)
	}
	nan := math.NaN()
	NewZipf(977, nan)
	before := memoLen()
	for i := 0; i < 10; i++ {
		NewZipf(977, nan)
	}
	if after := memoLen(); after != before {
		t.Fatalf("memo grew from %d to %d entries over 10 repeated NaN calls", before, after)
	}
}
