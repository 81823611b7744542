// Package workloads implements the paper's evaluation workloads as paged
// memory-reference generators with the same sharing structure the real
// applications exhibit:
//
//   - Data serving (Section VI): MongoDB (mmap storage engine), ArangoDB
//     (RocksDB-style private block cache over read-only SSTs), and HTTPd
//     (static files), each driven by a YCSB-style zipfian client;
//   - Compute: GraphChi PageRank over a shared mmapped graph, and FIO
//     doing random I/O over a shared dataset;
//   - Functions (FaaS): Parse, Hash and Marshal on an OpenFaaS-style
//     runtime, with dense and sparse input access variants;
//   - container bring-up (docker start) touching the runtime/infra pages.
//
// Each container is one process (Docker best practice, Section II-A);
// replicated containers of one application form one CCID group and run
// the same program against different request streams.
package workloads

// RNG is a small deterministic PRNG (splitmix64) so runs are reproducible
// and independent of the stdlib's seeding.
type RNG struct{ s uint64 }

// NewRNG seeds a generator.
func NewRNG(seed uint64) *RNG { return &RNG{s: seed} }

// Uint64 returns the next raw value.
func (r *RNG) Uint64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform value in [0, n).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }
