// Package graph is the graph-processing substrate behind the GraphChi
// workload (Section VI: "a graph processing framework with memory
// caching. We use the PageRank algorithm which traverses a 500MB graph
// from SNAP"). SNAP datasets are not available offline, so the package
// generates synthetic power-law graphs with the R-MAT recursive-matrix
// method (the standard surrogate for SNAP-style web/social graphs),
// stores them in CSR form, and implements the PageRank iteration whose
// memory behaviour the simulator's GraphChi generator replays.
//
// RMAT builds the CSR in time linear in the edge count. Each bit of an
// edge picks a quadrant from one 53-bit draw k against the cumulative
// probabilities 0.57, 0.76 and 0.95. These are float64 values in
// [0.5, 1), so each times 2^53 is an integer T, and k/2^53 < t holds
// exactly when k < T: three integer compares give the same quadrant as
// the float comparison, without a branch. The edges are then placed by
// counting sort (by destination, then stably by source) instead of
// sorting an edge list, which gives the same rows in the same order.
package graph

import (
	"fmt"
	"math"
)

// CSR is a graph in compressed sparse row form: RowPtr[v]..RowPtr[v+1]
// index into Dst, holding v's out-neighbours.
type CSR struct {
	N      int
	RowPtr []int32
	Dst    []int32
}

// Edges returns the edge count.
func (g *CSR) Edges() int { return len(g.Dst) }

// OutDegree returns vertex v's out-degree.
func (g *CSR) OutDegree(v int) int {
	return int(g.RowPtr[v+1] - g.RowPtr[v])
}

// Neighbors returns v's out-neighbour slice (aliasing internal storage).
func (g *CSR) Neighbors(v int) []int32 {
	return g.Dst[g.RowPtr[v]:g.RowPtr[v+1]]
}

// splitmixGamma is splitmix64's state increment.
const splitmixGamma = 0x9e3779b97f4a7c15

// splitmix is splitmix64's output function of the state.
func splitmix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// The cumulative R-MAT quadrant probabilities 0.57, 0.76 and 0.95 as
// thresholds on a 53-bit draw: each is float64(t)·2^53, an integer
// because t's ulp is 2^-53 (see the package comment). TestThresholdsExact
// checks them.
const (
	thresholdA   = 5134103575202365 // 0.57
	thresholdAB  = 6845471433603154 // 0.76
	thresholdABC = 8556839292003942 // 0.95
)

// edgeSource draws R-MAT edges from a splitmix64 stream.
type edgeSource struct {
	state uint64 // splitmix64 state
	scale int
	last  uint64 // n-1, n a power of two
}

// edge draws the next edge, one quadrant per bit from the top. The
// quadrant index q counts the thresholds a draw reaches, 0 to 3 for a
// to d, without a branch: src is set in c and d (q >= 2), dst in b and d
// (q odd). A self loop moves to the next vertex, wrapping at n.
func (e *edgeSource) edge() (src, dst int32) {
	x := e.state // a local, so the state stays in a register
	var s, d uint64
	for range e.scale {
		x += splitmixGamma
		k := splitmix(x) >> 11
		q := b2u(k >= thresholdA) + b2u(k >= thresholdAB) + b2u(k >= thresholdABC)
		s = s<<1 | q>>1
		d = d<<1 | q&1
	}
	e.state = x
	if s == d {
		d = (d + 1) & e.last
	}
	return int32(s), int32(d)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// RMAT generates a power-law directed graph with 2^scale vertices and
// edgeFactor×2^scale edges using the R-MAT (a,b,c,d) = (0.57, 0.19,
// 0.19, 0.05) parameters of the Graph500 reference. Each row of the CSR
// lists its destinations in ascending order, duplicates included.
//
// The edge stream is a pure function of seed, so it is drawn twice
// rather than held as an edge list: the first pass counts out- and
// in-degrees, the second buckets each edge's source under its
// destination. Walking the buckets in destination order then appends
// every destination to its source's row, so each row comes out sorted.
func RMAT(scale, edgeFactor int, seed uint64) (*CSR, error) {
	if scale < 1 || scale > 26 {
		return nil, fmt.Errorf("graph: scale %d out of range [1,26]", scale)
	}
	if edgeFactor < 1 {
		return nil, fmt.Errorf("graph: edge factor %d < 1", edgeFactor)
	}
	n := 1 << scale
	m := n * edgeFactor

	// Pass 1: out-degrees into RowPtr[src+1], in-degrees into inEnd[dst].
	rowPtr := make([]int32, n+1)
	inEnd := make([]int32, n)
	src := edgeSource{state: seed, scale: scale, last: uint64(n - 1)}
	for i := 0; i < m; i++ {
		s, d := src.edge()
		rowPtr[s+1]++
		inEnd[d]++
	}
	// inEnd[d] becomes the start of d's bucket; pass 2 advances it to the
	// bucket's end. RowPtr[v+1] becomes the start of v's row; the fill
	// below advances it to the row's end, which is RowPtr[v+1] proper.
	var inSum, outSum int32
	for v := 0; v < n; v++ {
		inEnd[v], inSum = inSum, inSum+inEnd[v]
		rowPtr[v+1], outSum = outSum, outSum+rowPtr[v+1]
	}

	// Pass 2: the same stream again, each source under its destination.
	srcByDst := make([]int32, m)
	src = edgeSource{state: seed, scale: scale, last: uint64(n - 1)}
	for i := 0; i < m; i++ {
		s, d := src.edge()
		srcByDst[inEnd[d]] = s
		inEnd[d]++
	}

	g := &CSR{N: n, RowPtr: rowPtr, Dst: make([]int32, m)}
	var lo int32
	for d := 0; d < n; d++ {
		for _, s := range srcByDst[lo:inEnd[d]] {
			g.Dst[rowPtr[s+1]] = int32(d)
			rowPtr[s+1]++
		}
		lo = inEnd[d]
	}
	return g, nil
}

// PageRank runs the power iteration with damping d until the L1 delta
// falls below eps or maxIter iterations elapse. Returns the rank vector
// and the iterations used. Dangling vertices redistribute uniformly.
func PageRank(g *CSR, d float64, eps float64, maxIter int) ([]float64, int) {
	n := g.N
	rank := make([]float64, n)
	next := make([]float64, n)
	inv := 1 / float64(n)
	for v := range rank {
		rank[v] = inv
	}
	iters := 0
	for ; iters < maxIter; iters++ {
		dangling := 0.0
		for v := range next {
			next[v] = 0
		}
		for v := 0; v < n; v++ {
			deg := g.OutDegree(v)
			if deg == 0 {
				dangling += rank[v]
				continue
			}
			share := rank[v] / float64(deg)
			for _, w := range g.Neighbors(v) {
				next[w] += share
			}
		}
		base := (1-d)*inv + d*dangling*inv
		delta := 0.0
		for v := 0; v < n; v++ {
			nv := base + d*next[v]
			delta += math.Abs(nv - rank[v])
			rank[v] = nv
		}
		if delta < eps {
			iters++
			break
		}
	}
	return rank, iters
}

// Layout describes how the CSR maps onto the GraphChi workload's shared
// dataset file: the vertex (RowPtr) section first, then the edge (Dst)
// section, 4KB pages.
type Layout struct {
	G            *CSR
	VertexPages  int // pages holding RowPtr
	EdgePages    int // pages holding Dst
	int32PerPage int
}

// NewLayout computes the paging of a CSR at 4KB pages / 4-byte entries.
func NewLayout(g *CSR) Layout {
	const per = 4096 / 4
	vp := (g.N + 1 + per - 1) / per
	ep := (len(g.Dst) + per - 1) / per
	if ep < 1 {
		ep = 1
	}
	return Layout{G: g, VertexPages: vp, EdgePages: ep, int32PerPage: per}
}

// TotalPages is the file size in pages.
func (l Layout) TotalPages() int { return l.VertexPages + l.EdgePages }

// VertexPage returns the dataset page holding RowPtr[v].
func (l Layout) VertexPage(v int) int { return v / l.int32PerPage }

// EdgePage returns the dataset page holding Dst[i].
func (l Layout) EdgePage(i int) int {
	return l.VertexPages + i/l.int32PerPage
}
