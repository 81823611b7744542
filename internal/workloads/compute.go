package workloads

import (
	"fmt"
	"sync"
	"sync/atomic"

	"babelfish/internal/graph"
	"babelfish/internal/kernel"
	"babelfish/internal/sim"
	"babelfish/internal/ycsb"
)

// Compute applications: two containers run the same program over
// different random traversals of a common (scaled) 500MB input.

// GraphChi models PageRank over a memory-mapped graph: it "operates on
// shared vertices, but uses internal buffering for the edges" (Section
// VII-A), so most of its active translations are private edge buffers and
// rank arrays — the paper's lowest BabelFish gain (shared hits 48% I /
// 12% D; little pte_t sharing).
func GraphChi() *AppSpec {
	spec := &AppSpec{
		Name:  "graphchi",
		Class: Compute,
		FP: Footprint{
			InfraPages: 2560, BinPages: 512, BinDataPages: 64, LibPages: 1280,
			DatasetPages: 12288, PrivatePages: 8192,
			// The rank array is a large contiguous anonymous region: with
			// THP enabled it is 2MB-mapped — the paper's (unshareable,
			// rarely-active) THP pte_ts in Figure 9.
			ScratchPages:      2048,
			DatasetChunkPages: 256, PrivateChunkPages: 256,
		},
		DatasetShared:       false,
		SkipDatasetPrefault: true, // shards are loaded lazily as the scan advances
		DatasetPerm:         permRO,
	}
	spec.NewGen = func(d *Deployment, p *kernel.Process, idx int, seed uint64) sim.Generator {
		return newGraphGen(d.Env(p), seed^0xD3D3)
	}
	return spec
}

// graphs memoizes generated R-MAT graphs: the containers of one
// deployment, both architectures' runs and every experiment cell of a
// process traverse the same graph. A graph is a pure function of its key.
var graphs graphMemo

type graphKey struct {
	scale, ef int
	seed      uint64
}

// graphMemo builds each graph once. Concurrent first callers of a key
// wait on its entry's once instead of each building the graph. The zero
// value is ready to use.
type graphMemo struct {
	mu      sync.Mutex
	entries map[graphKey]*graphEntry
	builds  atomic.Int64 // for tests: graphs actually built
}

type graphEntry struct {
	once sync.Once
	g    *graph.CSR
}

func (m *graphMemo) get(scale, ef int, seed uint64) *graph.CSR {
	key := graphKey{scale, ef, seed}
	m.mu.Lock()
	if m.entries == nil {
		m.entries = make(map[graphKey]*graphEntry)
	}
	e := m.entries[key]
	if e == nil {
		e = &graphEntry{}
		m.entries[key] = e
	}
	m.mu.Unlock()
	e.once.Do(func() {
		m.builds.Add(1)
		g, err := graph.RMAT(scale, ef, seed)
		if err != nil {
			panic(err) // parameters are fixed below
		}
		e.g = g
	})
	return e.g
}

// graphEdgeFactor is the R-MAT edges-per-vertex used by the workload.
const graphEdgeFactor = 8

// graphScaleFor picks an R-MAT scale whose CSR layout roughly fills the
// dataset region (bounded to keep generation affordable): a scale-s
// graph needs about (1+edgeFactor)*2^s/1024 pages.
func graphScaleFor(datasetPages int) int {
	scale := 10
	for scale < 20 && (1+graphEdgeFactor)*(1<<(scale+1))/1024 < datasetPages {
		scale++
	}
	return scale
}

type graphGen struct {
	env Env
	rng *RNG

	g      *graph.CSR
	layout graph.Layout
	code   *codeWalker
	vertex int // sequential PageRank scan position
	out    sink
	salt   uint64

	// Shard rotation: GraphChi's "memory caching" unmaps and remaps
	// windows of the graph as the scan advances. Under BabelFish the
	// remapped window relinks the group's still-populated shared tables
	// (no re-faults while a sibling maps it); the baseline re-faults
	// every page — the paper's page-table-dominated GraphChi gain.
	rotateEvery int
	batches     int
	lastChunk   int
}

func newGraphGen(env Env, seed uint64) *graphGen {
	rng := NewRNG(seed)
	scale := graphScaleFor(env.RDataset.Pages)
	// All containers of the deployment share the same graph: derive the
	// graph seed from the group, not the container.
	csr := graphs.get(scale, graphEdgeFactor, uint64(env.P.CCID)*0x9E37+1)
	return &graphGen{
		env: env, rng: rng,
		g:           csr,
		layout:      graph.NewLayout(csr),
		code:        newCodeWalker(env.P, rng, 0.08, 0.08, env.RBin, env.RLibs, env.RInfra),
		rotateEvery: 40,
		lastChunk:   -1,
	}
}

// rotateShard unmaps and remaps the dataset chunk under the scan position
// so its translations must be re-established (the data itself stays in
// the page cache).
func (g *graphGen) rotateShard(edgePage int) {
	r := g.env.RDataset
	if !r.Chunked() || g.env.DatasetFile == nil {
		return
	}
	chunk := edgePage / r.ChunkPages
	if chunk >= len(r.ChunkStarts) {
		chunk = len(r.ChunkStarts) - 1
	}
	g.lastChunk = chunk
	p := g.env.P
	start := r.ChunkStarts[chunk]
	v, ok := p.FindVMA(start)
	if !ok {
		return
	}
	if _, err := p.Unmap(v); err != nil {
		return
	}
	n := r.ChunkPages
	if (chunk+1)*r.ChunkPages > r.Pages {
		n = r.Pages - chunk*r.ChunkPages
	}
	sub := kernel.Region{Name: v.Name, Seg: r.Seg, Start: start, Pages: n}
	// A failed remap (e.g. injected OOM) leaves the window unmapped; the
	// next access faults and the generator retries via the normal path.
	_, _ = p.MapFile(sub, g.env.DatasetFile, chunk*r.ChunkPages, g.env.DatasetPerm, g.env.DatasetPrivate, fmt.Sprintf("dataset#%d", chunk))
}

// datasetPage clamps a layout page into the mapped dataset region.
func (g *graphGen) datasetPage(page int) int {
	if page >= g.env.RDataset.Pages {
		page %= g.env.RDataset.Pages
	}
	return page
}

// rankPage returns the rank-array page of vertex v (8 bytes per rank).
func (g *graphGen) rankPage(v int) int {
	return (v / 512) % g.env.RScratch.Pages
}

// buildBatch processes one vertex of the PageRank power iteration: read
// its RowPtr page, stream its out-edges from the CSR edge section
// (buffered privately, as GraphChi does), and scatter rank contributions
// to its neighbours' (random, power-law) rank pages.
func (g *graphGen) buildBatch() bool {
	e := &g.env
	g.salt++
	g.code.next(g.out.slot(), sim.ReqStart)

	v := g.vertex % g.g.N
	g.vertex++
	g.batches++
	if g.rotateEvery > 0 && g.batches%g.rotateEvery == 0 {
		// Rotate a random shard window (vertex or edge section).
		g.rotateShard(g.rng.Intn(g.env.RDataset.Pages))
	}

	// RowPtr page: sequential over the vertex section.
	g.out.data(e.pageVA(&e.RDataset, g.datasetPage(g.layout.VertexPage(v)))+lineOff(g.salt), false, 4)

	// Stream this vertex's edges from the shared CSR (consecutive pages),
	// copying them through the private shard buffers.
	lo, hi := int(g.g.RowPtr[v]), int(g.g.RowPtr[v+1])
	edges := hi - lo
	if edges > 24 {
		edges = 24 // GraphChi processes big vertices in sub-intervals
	}
	lastPage := -1
	for i := 0; i < edges; i++ {
		pg := g.datasetPage(g.layout.EdgePage(lo + i))
		if pg != lastPage {
			g.out.data(e.pageVA(&e.RDataset, pg)+lineOff(g.salt*11+uint64(i)), false, 3)
			lastPage = pg
		}
		// Buffered copy (private, low locality across shards).
		if i%4 == 0 {
			g.out.data(e.pageVA(&e.RPrivate, g.rng.Intn(e.RPrivate.Pages))+lineOff(g.salt*7+uint64(i)), true, 4)
		}
	}
	// Consume the buffers.
	for i := 0; i < 4; i++ {
		g.out.data(e.pageVA(&e.RPrivate, g.rng.Intn(e.RPrivate.Pages))+lineOff(g.salt*3+uint64(i)), false, 4)
		if i == 1 {
			g.code.next(g.out.slot(), sim.ReqNone)
		}
	}
	// Gather/scatter with the real neighbours: read each neighbour's
	// degree from its (random, power-law) RowPtr page, then update its
	// rank in the huge-page-backed rank array.
	scatter := edges
	if scatter > 3 {
		scatter = 3
	}
	for i := 0; i < scatter; i++ {
		w := int(g.g.Dst[lo+(i*7)%max(edges, 1)])
		g.out.data(e.pageVA(&e.RDataset, g.datasetPage(g.layout.VertexPage(w)))+lineOff(g.salt*17+uint64(i)), false, 4)
		g.out.data(e.pageVA(&e.RScratch, g.rankPage(w))+lineOff(g.salt*13+uint64(i)), true, 4)
	}
	g.code.next(g.out.slot(), sim.ReqEnd)
	return true
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func (g *graphGen) Next(out *sim.Step) bool {
	return g.out.next(out, g.buildBatch)
}

// NextBatch implements sim.BatchGenerator. At most one vertex is built
// per call, and only once the previous vertex's steps have all been
// handed out: buildBatch can rotate a dataset shard (unmap + remap, with
// shootdowns), and building exactly when the previous steps have all
// been consumed keeps those kernel mutations at the same point in
// machine time as step-at-a-time generation.
func (g *graphGen) NextBatch(buf []sim.Step) int {
	return g.out.batch(buf, g.buildBatch, true)
}

// MutatesKernel implements sim.KernelMutator: shard rotation unmaps and
// remaps dataset windows, so the parallel stepping executor must
// serialize this generator's refills at the quantum barrier. True only when the dataset
// is actually chunked and file-backed (rotateShard's own precondition).
func (g *graphGen) MutatesKernel() bool {
	return g.rotateEvery > 0 && g.env.RDataset.Chunked() && g.env.DatasetFile != nil
}

// FIO models the flexible I/O tester doing random reads and writes over
// an in-memory MAP_SHARED dataset. Both containers sweep the same
// dataset, so a large fraction of translations brought in by one are
// reused by the other — FIO gets the bigger compute-side improvement in
// the paper.
func FIO() *AppSpec {
	spec := &AppSpec{
		Name:  "fio",
		Class: Compute,
		FP: Footprint{
			InfraPages: 2560, BinPages: 256, BinDataPages: 32, LibPages: 768,
			DatasetPages: 12288, PrivatePages: 128, ScratchPages: 64,
			DatasetChunkPages: 256,
		},
		DatasetShared: true,
		DatasetPerm:   permRW,
	}
	spec.NewGen = func(d *Deployment, p *kernel.Process, idx int, seed uint64) sim.Generator {
		return newFioGen(d.Env(p), seed^0xE4E4)
	}
	return spec
}

type fioGen struct {
	env  Env
	rng  *RNG
	code *codeWalker
	zipf *ycsb.Zipf
	out  sink
	salt uint64
}

func newFioGen(env Env, seed uint64) *fioGen {
	rng := NewRNG(seed)
	return &fioGen{
		env: env, rng: rng,
		code: newCodeWalker(env.P, rng, 0.08, 0.10, env.RBin, env.RLibs, env.RInfra),
		// Mild skew: FIO touches most of the dataset but I/O benchmarks
		// re-touch hot blocks.
		zipf: ycsb.NewZipf(env.RDataset.Pages, 0.97),
	}
}

func (g *fioGen) buildOp() bool {
	e := &g.env
	g.salt++
	g.code.next(g.out.slot(), sim.ReqStart)

	write := g.rng.Bool(0.30)
	va := e.pageVA(&e.RDataset, g.zipf.Draw(g.rng.Float64()))
	// A 4KB block op touches several lines of the target page.
	for i := 0; i < 6; i++ {
		g.out.data(va+lineOff(g.salt*17+uint64(i)*5), write, 3)
	}
	// Copy through the small I/O buffer.
	g.out.data(e.pageVA(&e.RPrivate, g.rng.Intn(e.RPrivate.Pages))+lineOff(g.salt), true, 3)

	g.code.next(g.out.slot(), sim.ReqEnd)
	return true
}

func (g *fioGen) Next(out *sim.Step) bool {
	return g.out.next(out, g.buildOp)
}

// NextBatch implements sim.BatchGenerator.
func (g *fioGen) NextBatch(buf []sim.Step) int {
	return g.out.batch(buf, g.buildOp, false)
}
