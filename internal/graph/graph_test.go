package graph

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// rng is the splitmix64 stream RMAT draws from, written out in full so
// the reference shares no code with RMAT.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// rmatReference is the sort-based R-MAT build RMAT replaced: it draws
// the same splitmix64 stream as floats, picks each quadrant by a float
// switch, and sorts the whole edge list. RMAT must return the same CSR.
func rmatReference(scale, edgeFactor int, seed uint64) *CSR {
	n := 1 << scale
	m := n * edgeFactor
	const a, b, c = 0.57, 0.19, 0.19
	r := rng{s: seed}

	type edge struct{ src, dst int32 }
	edges := make([]edge, 0, m)
	for i := 0; i < m; i++ {
		var src, dst int
		for bit := scale - 1; bit >= 0; bit-- {
			u := float64(r.next()>>11) / float64(1<<53)
			switch {
			case u < a: // top-left
			case u < a+b: // top-right
				dst |= 1 << bit
			case u < a+b+c: // bottom-left
				src |= 1 << bit
			default: // bottom-right
				src |= 1 << bit
				dst |= 1 << bit
			}
		}
		if src == dst {
			dst = (dst + 1) % n
		}
		edges = append(edges, edge{int32(src), int32(dst)})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].src != edges[j].src {
			return edges[i].src < edges[j].src
		}
		return edges[i].dst < edges[j].dst
	})

	g := &CSR{N: n, RowPtr: make([]int32, n+1), Dst: make([]int32, 0, m)}
	for _, e := range edges {
		g.RowPtr[e.src+1]++
		g.Dst = append(g.Dst, e.dst)
	}
	for v := 0; v < n; v++ {
		g.RowPtr[v+1] += g.RowPtr[v]
	}
	return g
}

// lastVertexWraps counts the edges whose draw lands on the self loop at
// vertex n-1, which RMAT moves to vertex 0: every bit in quadrant d.
func lastVertexWraps(scale, edgeFactor int, seed uint64) int {
	r := rng{s: seed}
	wraps := 0
	for i := 0; i < edgeFactor<<scale; i++ {
		d := 0
		for bit := 0; bit < scale; bit++ {
			if float64(r.next()>>11)/float64(1<<53) >= 0.95 {
				d++
			}
		}
		if d == scale {
			wraps++
		}
	}
	return wraps
}

func checkAgainstReference(t *testing.T, scale, edgeFactor int, seed uint64) {
	t.Helper()
	got, err := RMAT(scale, edgeFactor, seed)
	if err != nil {
		t.Fatal(err)
	}
	want := rmatReference(scale, edgeFactor, seed)
	if got.N != want.N {
		t.Fatalf("RMAT(%d, %d, %#x): N = %d, reference %d", scale, edgeFactor, seed, got.N, want.N)
	}
	if i, ok := firstDiff(got.RowPtr, want.RowPtr); !ok {
		t.Fatalf("RMAT(%d, %d, %#x): RowPtr differs from the reference at %d", scale, edgeFactor, seed, i)
	}
	if i, ok := firstDiff(got.Dst, want.Dst); !ok {
		t.Fatalf("RMAT(%d, %d, %#x): Dst differs from the reference at %d", scale, edgeFactor, seed, i)
	}
}

// firstDiff reports the first index where a and b differ (or the shorter
// length), and whether they are equal.
func firstDiff(a, b []int32) (int, bool) {
	if slices.Equal(a, b) {
		return 0, true
	}
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i, false
}

func TestRMATMatchesReference(t *testing.T) {
	cases := []struct {
		name              string
		scale, edgeFactor int
		seed              uint64
	}{
		{"smallest", 1, 1, 1},
		{"deterministic", 8, 4, 99},
		{"basics", 10, 8, 1},
		{"power-law", 12, 16, 7},
		{"last-vertex-wrap", 2, 64, 3},
		{"graphchi-quick", 18, 8, 0x9E37 + 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.name == "last-vertex-wrap" && lastVertexWraps(c.scale, c.edgeFactor, c.seed) == 0 {
				t.Fatal("case draws no self loop at vertex n-1")
			}
			checkAgainstReference(t, c.scale, c.edgeFactor, c.seed)
		})
	}
}

// FuzzRMAT compares RMAT with the reference on small graphs; the seed
// corpus under testdata/fuzz/FuzzRMAT replays with plain go test.
func FuzzRMAT(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint64(1))
	f.Fuzz(func(t *testing.T, scale, edgeFactor uint8, seed uint64) {
		checkAgainstReference(t, 1+int(scale)%12, 1+int(edgeFactor)%16, seed)
	})
}

// TestThresholdsExact checks the integer quadrant thresholds against the
// float64 cut points the reference compares with: each is exactly
// float64(t)·2^53, so k < T agrees with float64(k)/2^53 < t for every
// 53-bit k.
func TestThresholdsExact(t *testing.T) {
	for _, c := range []struct {
		cut  float64
		want uint64
	}{{0.57, thresholdA}, {0.76, thresholdAB}, {0.95, thresholdABC}} {
		scaled := c.cut * (1 << 53)
		if scaled != math.Trunc(scaled) || uint64(scaled) != c.want {
			t.Errorf("threshold for %v = %d, want exact %v", c.cut, c.want, scaled)
		}
		for _, k := range []uint64{c.want - 1, c.want, c.want + 1} {
			if (float64(k)/(1<<53) < c.cut) != (k < c.want) {
				t.Errorf("cut %v: draw %d disagrees", c.cut, k)
			}
		}
	}
}

func BenchmarkRMAT(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RMAT(18, 8, 0x9E37+1); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRMATBasics(t *testing.T) {
	g, err := RMAT(10, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 1024 {
		t.Fatalf("N = %d", g.N)
	}
	if g.Edges() != 1024*8 {
		t.Fatalf("edges = %d", g.Edges())
	}
	if int(g.RowPtr[g.N]) != g.Edges() {
		t.Fatalf("RowPtr closure broken: %d vs %d", g.RowPtr[g.N], g.Edges())
	}
	// Monotone row pointers; destinations in range; no self loops.
	for v := 0; v < g.N; v++ {
		if g.RowPtr[v+1] < g.RowPtr[v] {
			t.Fatalf("RowPtr not monotone at %d", v)
		}
		for _, w := range g.Neighbors(v) {
			if int(w) < 0 || int(w) >= g.N {
				t.Fatalf("edge %d->%d out of range", v, w)
			}
			if int(w) == v {
				t.Fatalf("self loop at %d", v)
			}
		}
	}
}

func TestRMATPowerLaw(t *testing.T) {
	g, err := RMAT(12, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	// R-MAT graphs are skewed: the top-1% of vertices hold a large share
	// of the edges, and many vertices have zero out-degree.
	degs := make([]int, g.N)
	for v := range degs {
		degs[v] = g.OutDegree(v)
	}
	max, zeros := 0, 0
	for _, d := range degs {
		if d > max {
			max = d
		}
		if d == 0 {
			zeros++
		}
	}
	avg := float64(g.Edges()) / float64(g.N)
	if float64(max) < avg*10 {
		t.Errorf("max degree %d not ≫ average %.1f — not power law", max, avg)
	}
	if zeros == 0 {
		t.Error("no dangling vertices — implausible for R-MAT")
	}
}

func TestRMATDeterministic(t *testing.T) {
	a, _ := RMAT(8, 4, 99)
	b, _ := RMAT(8, 4, 99)
	if len(a.Dst) != len(b.Dst) {
		t.Fatal("sizes differ")
	}
	for i := range a.Dst {
		if a.Dst[i] != b.Dst[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestRMATValidation(t *testing.T) {
	if _, err := RMAT(0, 4, 1); err == nil {
		t.Error("scale 0 accepted")
	}
	if _, err := RMAT(30, 4, 1); err == nil {
		t.Error("scale 30 accepted")
	}
	if _, err := RMAT(8, 0, 1); err == nil {
		t.Error("edge factor 0 accepted")
	}
}

func TestPageRankConvergesAndSumsToOne(t *testing.T) {
	g, err := RMAT(10, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	rank, iters := PageRank(g, 0.85, 1e-8, 200)
	if iters >= 200 {
		t.Fatalf("did not converge in %d iterations", iters)
	}
	sum := 0.0
	for _, r := range rank {
		if r < 0 {
			t.Fatal("negative rank")
		}
		sum += r
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("ranks sum to %v", sum)
	}
}

func TestPageRankOnKnownGraph(t *testing.T) {
	// A 3-cycle: every vertex must end with rank 1/3.
	g := &CSR{N: 3, RowPtr: []int32{0, 1, 2, 3}, Dst: []int32{1, 2, 0}}
	rank, _ := PageRank(g, 0.85, 1e-12, 500)
	for v, r := range rank {
		if math.Abs(r-1.0/3) > 1e-9 {
			t.Fatalf("vertex %d rank %v, want 1/3", v, r)
		}
	}
	// A star 1->0, 2->0: vertex 0 must dominate.
	star := &CSR{N: 3, RowPtr: []int32{0, 0, 1, 2}, Dst: []int32{0, 0}}
	rank, _ = PageRank(star, 0.85, 1e-12, 500)
	if !(rank[0] > rank[1] && rank[0] > rank[2]) {
		t.Fatalf("star center not dominant: %v", rank)
	}
}

func TestLayoutPaging(t *testing.T) {
	g, _ := RMAT(10, 8, 5)
	l := NewLayout(g)
	if l.TotalPages() != l.VertexPages+l.EdgePages {
		t.Fatal("page accounting inconsistent")
	}
	if l.VertexPage(0) != 0 {
		t.Fatal("first vertex not on page 0")
	}
	if l.VertexPage(g.N-1) >= l.VertexPages {
		t.Fatal("vertex page beyond vertex section")
	}
	if l.EdgePage(0) != l.VertexPages {
		t.Fatal("first edge not at edge-section start")
	}
	if l.EdgePage(len(g.Dst)-1) >= l.TotalPages() {
		t.Fatal("edge page beyond file")
	}
	// Property: pages are monotone in index.
	f := func(a, b uint16) bool {
		i, j := int(a)%len(g.Dst), int(b)%len(g.Dst)
		if i > j {
			i, j = j, i
		}
		return l.EdgePage(i) <= l.EdgePage(j)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
