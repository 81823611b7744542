// Package ycsb implements the Yahoo! Cloud Serving Benchmark core
// workloads used to drive the paper's data-serving applications
// (Section VI: "each application is driven by the Yahoo Cloud Serving
// Benchmark with a 500MB dataset").
//
// It reproduces the YCSB core package's semantics: the six standard
// workload mixes (A-F), the request-distribution generators (zipfian,
// scrambled zipfian, latest, uniform), and the record-key to operation
// stream mapping. The data-serving generators in internal/workloads
// consume this stream and turn record operations into paged memory
// references.
package ycsb

import (
	"fmt"
	"math"
	"sync"
)

// Op is one database operation kind.
type Op int

const (
	OpRead Op = iota
	OpUpdate
	OpInsert
	OpScan
	OpReadModifyWrite
)

func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpUpdate:
		return "update"
	case OpInsert:
		return "insert"
	case OpScan:
		return "scan"
	case OpReadModifyWrite:
		return "rmw"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Mix is a workload's operation proportions (must sum to ~1).
type Mix struct {
	Read, Update, Insert, Scan, RMW float64
}

// Workload identifies a standard YCSB core workload.
type Workload byte

// The six core workloads.
const (
	WorkloadA Workload = 'A' // update heavy: 50/50 read/update
	WorkloadB Workload = 'B' // read mostly: 95/5 read/update
	WorkloadC Workload = 'C' // read only
	WorkloadD Workload = 'D' // read latest: 95/5 read/insert
	WorkloadE Workload = 'E' // short ranges: 95/5 scan/insert
	WorkloadF Workload = 'F' // read-modify-write: 50/50 read/RMW
)

// MixOf returns the standard proportions of a workload.
func MixOf(w Workload) (Mix, error) {
	switch w {
	case WorkloadA:
		return Mix{Read: 0.5, Update: 0.5}, nil
	case WorkloadB:
		return Mix{Read: 0.95, Update: 0.05}, nil
	case WorkloadC:
		return Mix{Read: 1.0}, nil
	case WorkloadD:
		return Mix{Read: 0.95, Insert: 0.05}, nil
	case WorkloadE:
		return Mix{Scan: 0.95, Insert: 0.05}, nil
	case WorkloadF:
		return Mix{Read: 0.5, RMW: 0.5}, nil
	}
	return Mix{}, fmt.Errorf("ycsb: unknown workload %q", string(w))
}

// DistKind selects the request distribution.
type DistKind int

const (
	// DistZipfian is the YCSB default (theta 0.99), hot keys anywhere.
	DistZipfian DistKind = iota
	// DistScrambledZipfian spreads the zipfian hot set over the keyspace
	// by hashing ranks (YCSB's default for A/B/C/F).
	DistScrambledZipfian
	// DistLatest favours recently inserted keys (workload D).
	DistLatest
	// DistUniform is uniform over the keyspace (workload E scans start
	// uniformly in YCSB's default configuration variant).
	DistUniform
)

// rng is a splitmix64 generator (self-contained to keep the package
// dependency-free).
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / float64(1<<53) }

func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// Zipf samples zipfian-distributed item indices in [0, n) with the Gray
// et al. algorithm YCSB uses; low indices are the hottest.
type Zipf struct {
	n     int
	alpha float64
	zetan float64
	eta   float64
	two   float64 // 1 + 0.5^theta: u*zetan below it draws index 1
}

// NewZipf builds a sampler over n items (at least 1) with skew theta.
// Gray et al.'s sampler is only valid for 0 < theta < 1: theta = 1 makes
// alpha infinite and theta = NaN sends every draw to item 0. NewZipf does
// not check the range (New does); callers passing other values get the
// formula's output as is.
func NewZipf(n int, theta float64) *Zipf {
	if n < 1 {
		n = 1
	}
	z := &Zipf{n: n}
	z.zetan = zeta(n, theta)
	zeta2 := zeta(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/z.zetan)
	z.two = 1 + math.Pow(0.5, theta)
	return z
}

// zetaKey identifies one zeta sum. theta is keyed by its bits, not its
// value: NaN never equals itself, so a float key would add a new entry on
// every NaN call.
type zetaKey struct {
	n     int
	theta uint64
}

// zetaMemo holds every zeta sum computed so far, for the life of the
// process. Each container start builds its samplers over the same few
// dataset sizes, and the O(n) sum of math.Pow calls dominated start-up;
// the memo grows by one small entry per distinct (n, theta). It is shared
// by all goroutines.
var zetaMemo = struct {
	sync.Mutex
	m map[zetaKey]float64
}{m: map[zetaKey]float64{}}

// zeta returns zetaSum(n, theta), computing it once per (n, theta).
// The value is the same float sum in the same order, so it is
// bit-identical to a fresh computation.
func zeta(n int, theta float64) float64 {
	k := zetaKey{n: n, theta: math.Float64bits(theta)}
	zetaMemo.Lock()
	s, ok := zetaMemo.m[k]
	zetaMemo.Unlock()
	if ok {
		return s
	}
	// Sum outside the lock; a concurrent miss on the same key stores the
	// same value.
	s = zetaSum(n, theta)
	zetaMemo.Lock()
	zetaMemo.m[k] = s
	zetaMemo.Unlock()
	return s
}

// zetaSum is the generalized harmonic number sum_{i=1..n} 1/i^theta.
func zetaSum(n int, theta float64) float64 {
	s := 0.0
	for i := 1; i <= n; i++ {
		s += 1 / math.Pow(float64(i), theta)
	}
	return s
}

// Draw maps a uniform u in [0, 1) to an item index.
func (z *Zipf) Draw(u float64) int {
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.two {
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

// fnvHash64 scrambles ranks for the scrambled-zipfian distribution.
func fnvHash64(v uint64) uint64 {
	const (
		offset = 0xCBF29CE484222325
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= prime
		v >>= 8
	}
	return h
}

// Request is one generated operation.
type Request struct {
	Op  Op
	Key int // record index in [0, Records)
	// ScanLen is the number of consecutive records for OpScan.
	ScanLen int
}

// Config parameterizes a generator.
type Config struct {
	Workload Workload
	Records  int
	Dist     DistKind // zero value picks the workload's default
	Theta    float64  // zipfian skew in (0, 1); 0 = YCSB default 0.99
	MaxScan  int      // maximum scan length (default 100)
	Seed     uint64
}

// Generator produces the request stream of one YCSB client.
type Generator struct {
	cfg     Config
	mix     Mix
	rng     rng
	zipf    *Zipf
	records int // grows with inserts
}

// New builds a generator; it validates the workload, the record count
// and the skew.
func New(cfg Config) (*Generator, error) {
	mix, err := MixOf(cfg.Workload)
	if err != nil {
		return nil, err
	}
	if cfg.Records < 1 {
		return nil, fmt.Errorf("ycsb: need at least 1 record")
	}
	if cfg.Theta == 0 {
		cfg.Theta = 0.99
	}
	if math.IsNaN(cfg.Theta) || cfg.Theta < 0 || cfg.Theta >= 1 {
		return nil, fmt.Errorf("ycsb: zipfian skew %v outside (0, 1)", cfg.Theta)
	}
	if cfg.MaxScan == 0 {
		cfg.MaxScan = 100
	}
	if cfg.Dist == DistZipfian {
		// Pick the workload's default distribution when the caller left
		// the zero value: scrambled zipfian for A/B/C/F, latest for D,
		// uniform starts for E.
		switch cfg.Workload {
		case WorkloadD:
			cfg.Dist = DistLatest
		case WorkloadE:
			cfg.Dist = DistUniform
		default:
			cfg.Dist = DistScrambledZipfian
		}
	}
	g := &Generator{
		cfg:     cfg,
		mix:     mix,
		rng:     rng{s: cfg.Seed},
		zipf:    NewZipf(cfg.Records, cfg.Theta),
		records: cfg.Records,
	}
	return g, nil
}

// Records returns the current record count (grows with inserts).
func (g *Generator) Records() int { return g.records }

// key draws a record index per the configured distribution.
func (g *Generator) key() int {
	switch g.cfg.Dist {
	case DistUniform:
		return g.rng.intn(g.records)
	case DistLatest:
		// Hot keys are the most recent: rank 0 = newest record.
		rank := g.zipf.Draw(g.rng.float())
		k := g.records - 1 - rank
		if k < 0 {
			k = 0
		}
		return k
	case DistScrambledZipfian:
		rank := g.zipf.Draw(g.rng.float())
		return int(fnvHash64(uint64(rank)) % uint64(g.records))
	default: // plain zipfian
		return g.zipf.Draw(g.rng.float())
	}
}

// Next generates one request.
func (g *Generator) Next() Request {
	u := g.rng.float()
	m := g.mix
	switch {
	case u < m.Read:
		return Request{Op: OpRead, Key: g.key()}
	case u < m.Read+m.Update:
		return Request{Op: OpUpdate, Key: g.key()}
	case u < m.Read+m.Update+m.Insert:
		k := g.records
		g.records++ // inserts extend the keyspace (bounded growth)
		if g.records > g.cfg.Records*2 {
			g.records = g.cfg.Records * 2
			k = g.rng.intn(g.records)
		}
		return Request{Op: OpInsert, Key: k}
	case u < m.Read+m.Update+m.Insert+m.Scan:
		l := 1 + g.rng.intn(g.cfg.MaxScan)
		return Request{Op: OpScan, Key: g.key(), ScanLen: l}
	default:
		return Request{Op: OpReadModifyWrite, Key: g.key()}
	}
}
