package workloads

import (
	"babelfish/internal/kernel"
	"babelfish/internal/kvstore"
	"babelfish/internal/sim"
	"babelfish/internal/ycsb"
)

// Data-serving applications (Section VI): each container serves a YCSB-
// driven request stream over a (scaled) 500MB dataset. The two containers
// of an application serve different requests but hit overlapping hot
// pages of the shared dataset, which is what makes their translations
// replicate.

// MongoDB models a document store with a memory-mapped storage engine:
// the dataset is MAP_SHARED and updates write the page cache directly.
// Requests walk a B-tree index, then touch the record page, with a
// little private session state. Address translation pressure is high and
// dominated by the dataset, so most of BabelFish's gain comes from L2 TLB
// entry sharing (Table II: 0.77). Driven by YCSB workload B (read
// mostly, 95/5 read/update).
func MongoDB() *AppSpec {
	spec := &AppSpec{
		Name:  "mongodb",
		Class: DataServing,
		FP: Footprint{
			InfraPages: 2560, BinPages: 640, BinDataPages: 96, LibPages: 1536,
			DatasetPages: 12288, PrivatePages: 768, ScratchPages: 128,
			DatasetChunkPages: 512,
		},
		DatasetShared: true,
		DatasetPerm:   permRW,
	}
	spec.NewGen = func(d *Deployment, p *kernel.Process, idx int, seed uint64) sim.Generator {
		g := &dataServingGen{
			env:         d.Env(p),
			rng:         NewRNG(seed ^ 0xA0A0),
			workload:    ycsb.WorkloadB,
			engine:      engineBTree,
			hotFrac:     0.08,
			privTheta:   0.95,
			indexFrac:   16, // 1/16th of the dataset holds the B-tree
			recordLines: 4,
			privProbes:  2,
			scratchOps:  2,
			codeBursts:  3,
			seed:        seed ^ 0x5151,
		}
		g.init()
		return g
	}
	return spec
}

// ArangoDB models an LSM store (RocksDB engine): SSTs are mapped
// MAP_PRIVATE read-only, and a large private anonymous block cache
// absorbs most accesses; SST pages are touched lazily, so its steady
// state keeps taking minor faults (the paper attributes most of Arango's
// gain to page-table effects, Table II: 0.25). Driven by YCSB workload C
// (read only — updates land in the private memtable, modelled as private
// writes).
func ArangoDB() *AppSpec {
	spec := &AppSpec{
		Name:  "arangodb",
		Class: DataServing,
		FP: Footprint{
			InfraPages: 2560, BinPages: 768, BinDataPages: 96, LibPages: 1536,
			DatasetPages: 12288, PrivatePages: 4096, ScratchPages: 128,
			DatasetChunkPages: 256, PrivateChunkPages: 256,
		},
		DatasetShared:       false,
		SkipDatasetPrefault: true,
		DatasetPerm:         permRO,
	}
	spec.NewGen = func(d *Deployment, p *kernel.Process, idx int, seed uint64) sim.Generator {
		g := &dataServingGen{
			env:         d.Env(p),
			rng:         NewRNG(seed ^ 0xB1B1),
			workload:    ycsb.WorkloadC,
			engine:      engineLSM,
			hotFrac:     0.08,
			dataTheta:   0.75, // LSM reads spread over the SSTs (cold pages keep faulting)
			indexFrac:   24,
			recordLines: 4,
			privProbes:  4, // block cache reads and fills
			privWrites:  2, // memtable writes
			scratchOps:  2,
			codeBursts:  3,
			seed:        seed ^ 0x6262,
		}
		g.init()
		return g
	}
	return spec
}

// HTTPd models a static web server: a read-only docroot, a hot code path,
// and small per-request scratch. It is stream-like, with lower address-
// translation stress than the databases — the paper finds smaller (but
// still real) gains here. Driven by YCSB workload C over the docroot
// (every request reads one file).
func HTTPd() *AppSpec {
	spec := &AppSpec{
		Name:  "httpd",
		Class: DataServing,
		FP: Footprint{
			InfraPages: 2560, BinPages: 384, BinDataPages: 64, LibPages: 1024,
			DatasetPages: 8192, PrivatePages: 256, ScratchPages: 128,
			DatasetChunkPages: 1024,
		},
		DatasetShared: false,
		DatasetPerm:   permRO,
	}
	spec.NewGen = func(d *Deployment, p *kernel.Process, idx int, seed uint64) sim.Generator {
		g := &dataServingGen{
			env:         d.Env(p),
			rng:         NewRNG(seed ^ 0xC2C2),
			workload:    ycsb.WorkloadC,
			engine:      engineBTree, // the docroot's directory metadata tree
			hotFrac:     0.10,
			privTheta:   0.95,
			dataTheta:   0.90,
			indexFrac:   16, // directory/metadata pages
			recordLines: 4,
			privProbes:  1,
			scratchOps:  4,
			codeBursts:  6, // parse-heavy: more instruction work per request
			seed:        seed ^ 0x7373,
		}
		g.init()
		return g
	}
	return spec
}

// dataServingGen turns a YCSB request stream into paged references:
//
//	ReqStart → code bursts interleaved with: an index walk (hot B-tree
//	pages derived from the key), the record page itself (written on
//	updates/RMW against MAP_SHARED datasets), private-state probes,
//	scratch writes → ReqEnd.
//
// engineKind selects the index substrate of a data-serving app.
type engineKind int

const (
	engineBTree engineKind = iota // MongoDB-style B+tree / directory tree
	engineLSM                     // RocksDB-style leveled LSM
)

type dataServingGen struct {
	env Env
	rng *RNG

	workload    ycsb.Workload
	engine      engineKind
	hotFrac     float64
	dataTheta   float64
	privTheta   float64
	indexFrac   int // index region = dataset/indexFrac
	recordLines int
	privProbes  int
	privWrites  int
	scratchOps  int
	codeBursts  int
	seed        uint64

	code     *codeWalker
	reqs     *ycsb.Generator
	zipfPriv *ycsb.Zipf
	btree    *kvstore.BTree
	lsm      *kvstore.LSM

	recordsPerPage int
	indexPages     int
	dsWritable     bool

	q       stepQueue
	salt    uint64
	pageBuf []kvstore.PageID // indexWalk's reused lookup result
}

func (g *dataServingGen) init() {
	e := &g.env
	if g.hotFrac == 0 {
		g.hotFrac = 0.08
	}
	if g.dataTheta == 0 {
		g.dataTheta = 0.99
	}
	if g.privTheta == 0 {
		g.privTheta = 0.80
	}
	if g.indexFrac == 0 {
		g.indexFrac = 16
	}
	if g.recordLines == 0 {
		g.recordLines = 4
	}
	g.code = newCodeWalker(e.P, g.rng, g.hotFrac, 0.10, e.RBin, e.RLibs, e.RInfra)
	g.indexPages = e.RDataset.Pages / g.indexFrac
	if g.indexPages < 1 {
		g.indexPages = 1
	}
	// Records live in the dataset pages past the index region.
	g.recordsPerPage = 8
	dataPages := e.RDataset.Pages - g.indexPages
	if dataPages < 1 {
		dataPages = 1
	}
	var err error
	g.reqs, err = ycsb.New(ycsb.Config{
		Workload: g.workload,
		Records:  dataPages * g.recordsPerPage,
		Theta:    g.dataTheta,
		MaxScan:  48,
		Seed:     g.seed,
	})
	if err != nil {
		panic(err) // workload mixes are fixed at compile time
	}
	if e.RPrivate.Pages > 0 {
		g.zipfPriv = ycsb.NewZipf(e.RPrivate.Pages, g.privTheta)
	}
	if vma, ok := e.P.FindVMA(e.RDataset.PageVA(0)); ok {
		g.dsWritable = vma.Perm.CanWrite()
	}

	// Build the real index substrate over the keyspace.
	keys := g.reqs.Records() * 2 // headroom for inserts
	switch g.engine {
	case engineBTree:
		// Size the leaves so the whole tree fits the index region.
		keysPerLeaf := keys/(g.indexPages*3/4+1) + 1
		if keysPerLeaf < 8 {
			keysPerLeaf = 8
		}
		bt, err := kvstore.NewBTree(keys, 128, keysPerLeaf)
		if err != nil {
			panic(err)
		}
		g.btree = bt
	case engineLSM:
		l, err := kvstore.NewLSM(keys, g.recordsPerPage*2, 4, 3, 10)
		if err != nil {
			panic(err)
		}
		g.lsm = l
	}
}

// recordPage maps a YCSB key to its dataset page (past the index region).
func (g *dataServingGen) recordPage(key int) int {
	p := g.indexPages + key/g.recordsPerPage
	if p >= g.env.RDataset.Pages {
		p = g.env.RDataset.Pages - 1
	}
	return p
}

// indexWalk yields the index pages a key lookup touches. For the B+tree
// engine it is the real root→leaf path (mapped into the hot index
// region); for the LSM engine it is the bloom/index pages of the lookup,
// with the data pages handled by the record access itself.
func (g *dataServingGen) indexWalk(key int, visit func(page int)) {
	switch g.engine {
	case engineBTree:
		g.pageBuf = g.btree.AppendPagePath(g.pageBuf[:0], key)
		for _, pg := range g.pageBuf {
			visit(int(pg) % g.indexPages)
		}
	case engineLSM:
		// 10% of reads hit a recent L0 run.
		var salt uint64
		if g.rng.Bool(0.10) {
			salt = g.rng.Uint64() | 1
		}
		g.pageBuf = g.lsm.AppendLookup(g.pageBuf[:0], key, salt)
		// All but the final data page are index-side structures; map the
		// metadata into the hot index region and let the record access
		// cover the data page.
		for i, pg := range g.pageBuf {
			if i == len(g.pageBuf)-1 {
				break
			}
			visit(int(pg) % g.indexPages)
		}
	}
}

// buildRequest enqueues one YCSB request's steps.
func (g *dataServingGen) buildRequest() {
	e, p := &g.env, g.env.P
	g.salt++
	var s sim.Step

	first := true
	emitCode := func() {
		g.code.next(&s)
		if first {
			s.Req = sim.ReqStart
			first = false
		}
		g.q.push(s)
	}

	// probe touches several cache lines of one page (a record or index
	// node spans hundreds of bytes), which keeps the L1 TLB useful and
	// puts realistic line pressure on the cache hierarchy.
	probe := func(r kernel.Region, page int, write bool, lines int, salt uint64) {
		for l := 0; l < lines; l++ {
			dataStep(&s, p, pageAddr(r, page, salt*5+uint64(l)*7), write, 2)
			g.q.push(s)
		}
	}

	emitCode()
	for b := 0; b < g.codeBursts; b++ {
		req := g.reqs.Next()
		// Index walk for the request's key.
		i := 0
		g.indexWalk(req.Key, func(page int) {
			probe(e.RDataset, page, false, 2, g.salt+uint64(i))
			i++
		})
		// The record itself.
		switch req.Op {
		case ycsb.OpRead:
			probe(e.RDataset, g.recordPage(req.Key), false, g.recordLines, g.salt*7)
		case ycsb.OpUpdate, ycsb.OpInsert:
			probe(e.RDataset, g.recordPage(req.Key), g.dsWritable, g.recordLines, g.salt*7)
			if !g.dsWritable {
				// LSM-style stores buffer updates privately (memtable).
				probe(e.RPrivate, g.zipfPriv.Draw(g.rng.Float64()), true, 2, g.salt*11)
			}
		case ycsb.OpScan:
			pages := req.ScanLen / g.recordsPerPage
			if pages < 1 {
				pages = 1
			}
			if pages > 6 {
				pages = 6
			}
			start := g.recordPage(req.Key)
			for j := 0; j < pages; j++ {
				probe(e.RDataset, start+j, false, 2, g.salt*13+uint64(j))
			}
		case ycsb.OpReadModifyWrite:
			pg := g.recordPage(req.Key)
			probe(e.RDataset, pg, false, g.recordLines, g.salt*7)
			probe(e.RDataset, pg, g.dsWritable, 2, g.salt*17)
		}
		// Private state (block cache, session heap).
		for j := 0; j < g.privProbes; j++ {
			probe(e.RPrivate, g.zipfPriv.Draw(g.rng.Float64()), false, 3, g.salt*3+uint64(j))
		}
		for j := 0; j < g.privWrites; j++ {
			probe(e.RPrivate, g.zipfPriv.Draw(g.rng.Float64()), true, 3, g.salt*5+uint64(j))
		}
		emitCode()
	}
	// Scratch (response assembly writes a few lines).
	for j := 0; j < g.scratchOps; j++ {
		probe(e.RScratch, g.rng.Intn(e.RScratch.Pages), true, 3, g.salt+uint64(j))
	}
	g.code.next(&s)
	s.Req = sim.ReqEnd
	g.q.push(s)
}

// Next implements sim.Generator; data-serving containers never finish.
func (g *dataServingGen) Next(out *sim.Step) bool {
	if g.q.empty() {
		g.buildRequest()
	}
	return g.q.pop(out)
}

// NextBatch implements sim.BatchGenerator: whole requests are drained
// into buf in one call instead of one interface dispatch per step.
func (g *dataServingGen) NextBatch(buf []sim.Step) int {
	n := 0
	for n < len(buf) {
		if g.q.empty() {
			g.buildRequest()
		}
		n += g.q.popN(buf[n:])
	}
	return n
}
