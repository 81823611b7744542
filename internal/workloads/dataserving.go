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
			env:        d.Env(p),
			rng:        NewRNG(seed ^ 0xA0A0),
			workload:   ycsb.WorkloadB,
			engine:     engineBTree,
			hotFrac:    0.08,
			privTheta:  0.95,
			indexFrac:  16, // 1/16th of the dataset holds the B-tree
			privProbes: 2,
			scratchOps: 2,
			codeBursts: 3,
			seed:       seed ^ 0x5151,
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
			env:        d.Env(p),
			rng:        NewRNG(seed ^ 0xB1B1),
			workload:   ycsb.WorkloadC,
			engine:     engineLSM,
			hotFrac:    0.08,
			dataTheta:  0.75, // LSM reads spread over the SSTs (cold pages keep faulting)
			indexFrac:  24,
			privProbes: 4, // block cache reads and fills
			privWrites: 2, // memtable writes
			scratchOps: 2,
			codeBursts: 3,
			seed:       seed ^ 0x6262,
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
			env:        d.Env(p),
			rng:        NewRNG(seed ^ 0xC2C2),
			workload:   ycsb.WorkloadC,
			engine:     engineBTree, // the docroot's directory metadata tree
			hotFrac:    0.10,
			privTheta:  0.95,
			dataTheta:  0.90,
			indexFrac:  16, // directory/metadata pages
			privProbes: 1,
			scratchOps: 4,
			codeBursts: 6, // parse-heavy: more instruction work per request
			seed:       seed ^ 0x7373,
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

// recordLines is the number of cache lines a request touches in its
// record's page, in every data-serving app.
const recordLines = 4

type dataServingGen struct {
	env Env
	rng *RNG

	workload   ycsb.Workload
	engine     engineKind
	hotFrac    float64
	dataTheta  float64
	privTheta  float64
	indexFrac  int // index region = dataset/indexFrac
	privProbes int
	privWrites int
	scratchOps int
	codeBursts int
	seed       uint64

	code     *codeWalker
	reqs     *ycsb.Generator
	zipfPriv *ycsb.Zipf
	btree    *kvstore.BTree
	lsm      *kvstore.LSM

	recordsPerPage int
	indexPages     int
	dsWritable     bool

	out     sink
	salt    uint64
	pageBuf []kvstore.PageID // indexWalk's reused lookup result
}

func (g *dataServingGen) init() {
	e := &g.env
	if g.dataTheta == 0 {
		g.dataTheta = 0.99
	}
	if g.privTheta == 0 {
		g.privTheta = 0.80
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

// indexWalk returns the index pages a key lookup touches, before their
// mapping into the index region. For the B+tree engine it is the real
// root→leaf path; for the LSM engine it is the bloom/index pages of the
// lookup, with the data pages handled by the record access itself.
func (g *dataServingGen) indexWalk(key int) []kvstore.PageID {
	switch g.engine {
	case engineBTree:
		g.pageBuf = g.btree.AppendPagePath(g.pageBuf[:0], key)
		return g.pageBuf
	case engineLSM:
		// 10% of reads hit a recent L0 run.
		var salt uint64
		if g.rng.Bool(0.10) {
			salt = g.rng.Uint64() | 1
		}
		g.pageBuf = g.lsm.AppendLookup(g.pageBuf[:0], key, salt)
		// All but the final data page are index-side structures.
		if n := len(g.pageBuf); n > 0 {
			return g.pageBuf[:n-1]
		}
	}
	return nil
}

// probe touches several cache lines of one page (a record or index node
// spans hundreds of bytes), which keeps the L1 TLB useful and puts
// realistic line pressure on the cache hierarchy.
func (g *dataServingGen) probe(r *kernel.Region, page int, write bool, lines int, salt uint64) {
	va := g.env.pageVA(r, page)
	for l := 0; l < lines; l++ {
		g.out.data(va+lineOff(salt*5+uint64(l)*7), write, 2)
	}
}

// buildRequest adds one YCSB request's steps to the sink.
func (g *dataServingGen) buildRequest() bool {
	e := &g.env
	g.salt++

	g.code.next(g.out.slot(), sim.ReqStart)
	for b := 0; b < g.codeBursts; b++ {
		req := g.reqs.Next()
		// Index walk for the request's key, mapped into the hot index
		// region.
		for i, pg := range g.indexWalk(req.Key) {
			g.probe(&e.RDataset, int(pg)%g.indexPages, false, 2, g.salt+uint64(i))
		}
		// The record itself.
		switch req.Op {
		case ycsb.OpRead:
			g.probe(&e.RDataset, g.recordPage(req.Key), false, recordLines, g.salt*7)
		case ycsb.OpUpdate, ycsb.OpInsert:
			g.probe(&e.RDataset, g.recordPage(req.Key), g.dsWritable, recordLines, g.salt*7)
			if !g.dsWritable {
				// LSM-style stores buffer updates privately (memtable).
				g.probe(&e.RPrivate, g.zipfPriv.Draw(g.rng.Float64()), true, 2, g.salt*11)
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
				g.probe(&e.RDataset, start+j, false, 2, g.salt*13+uint64(j))
			}
		case ycsb.OpReadModifyWrite:
			pg := g.recordPage(req.Key)
			g.probe(&e.RDataset, pg, false, recordLines, g.salt*7)
			g.probe(&e.RDataset, pg, g.dsWritable, 2, g.salt*17)
		}
		// Private state (block cache, session heap).
		for j := 0; j < g.privProbes; j++ {
			g.probe(&e.RPrivate, g.zipfPriv.Draw(g.rng.Float64()), false, 3, g.salt*3+uint64(j))
		}
		for j := 0; j < g.privWrites; j++ {
			g.probe(&e.RPrivate, g.zipfPriv.Draw(g.rng.Float64()), true, 3, g.salt*5+uint64(j))
		}
		g.code.next(g.out.slot(), sim.ReqNone)
	}
	// Scratch (response assembly writes a few lines).
	for j := 0; j < g.scratchOps; j++ {
		g.probe(&e.RScratch, g.rng.Intn(e.RScratch.Pages), true, 3, g.salt+uint64(j))
	}
	g.code.next(g.out.slot(), sim.ReqEnd)
	return true
}

// Next implements sim.Generator; data-serving containers never finish.
func (g *dataServingGen) Next(out *sim.Step) bool {
	return g.out.next(out, g.buildRequest)
}

// NextBatch implements sim.BatchGenerator: requests are built straight
// into buf until it is full.
func (g *dataServingGen) NextBatch(buf []sim.Step) int {
	return g.out.batch(buf, g.buildRequest, false)
}
