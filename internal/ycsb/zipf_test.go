package ycsb

import (
	"math"
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
	z.zetan = zeta(n, theta)
	z.zeta2 = zeta(2, theta)
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

// TestZipfMatchesReference: hoisting the loop-invariant constant must
// leave every draw bit-identical, including the degenerate n = 1 and
// n = 2 keyspaces and the thetas the workloads use.
func TestZipfMatchesReference(t *testing.T) {
	cases := []struct {
		n     int
		theta float64
	}{
		{0, 0.99}, {1, 0.99}, {2, 0.99}, {2, 0.5}, {3, 0.97},
		{1000, 0.99}, {4096, 0.97}, {100_000, 0.8}, {50, 1.5},
	}
	const draws = 100_000
	for _, tc := range cases {
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
