package telemetry

import (
	"math"
	"math/bits"
	"slices"

	"babelfish/internal/memdefs"
)

// numBuckets covers every uint64: bucket 0 holds the value 0 and bucket
// i (1..64) holds values whose bit length is i, i.e. [2^(i-1), 2^i).
const numBuckets = 65

// Hist is a log2-bucketed latency histogram, the default recorder: use
// it wherever a distribution is summarised rather than reported exactly
// (per-access translation latency, fault cost, fleet roll-ups). Observe
// is a few adds and a bit-length — cheap enough to sit on the per-access
// translation path — its memory is fixed, and quantiles are answered
// from the bucket counts with linear interpolation inside the containing
// bucket, which is accurate to the bucket's factor-of-two width (plenty
// for p50/p90/p99 of latencies that range over several orders of
// magnitude). Not safe for concurrent use.
type Hist struct {
	name, unit, help string
	buckets          [numBuckets]uint64
	count            uint64
	sum              uint64
	max              uint64
}

// NewHist returns a standalone histogram (registry-less tests).
func NewHist(name, unit, help string) *Hist {
	return &Hist{name: name, unit: unit, help: help}
}

// Name returns the histogram's registered name.
func (h *Hist) Name() string { return h.name }

// Observe records one value.
func (h *Hist) Observe(v uint64) {
	h.buckets[bits.Len64(v)]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// ObserveCycles records a cycle count.
func (h *Hist) ObserveCycles(c memdefs.Cycles) { h.Observe(uint64(c)) }

// Count returns the number of observations.
func (h *Hist) Count() uint64 { return h.count }

// Sum returns the sum of all observed values.
func (h *Hist) Sum() uint64 { return h.sum }

// Max returns the largest observed value.
func (h *Hist) Max() uint64 { return h.max }

// Mean returns the arithmetic mean (0 when empty).
func (h *Hist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns the q-th quantile (0 < q <= 1) by nearest rank over
// the buckets, interpolating linearly inside the containing bucket.
func (h *Hist) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var seen uint64
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		if seen+n >= rank {
			lo, hi := bucketBounds(i)
			if hi > float64(h.max) {
				hi = float64(h.max)
			}
			frac := float64(rank-seen) / float64(n)
			return lo + frac*(hi-lo)
		}
		seen += n
	}
	return float64(h.max)
}

// bucketBounds returns bucket i's value range [lo, hi]. The top bucket
// (i = 64) is special-cased: uint64(1)<<64 wraps to zero, which used to
// collapse its upper bound to -1 and drag quantiles over near-MaxUint64
// observations down to ~0.
func bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 0
	}
	if i == 1 {
		return 1, 1
	}
	if i >= 64 {
		return float64(uint64(1) << 63), math.MaxUint64
	}
	return float64(uint64(1) << (i - 1)), float64(uint64(1)<<i) - 1
}

// Merge folds other's observations into h bucket by bucket — the
// fleet-wide roll-up of per-node machine histograms. Exact: log2
// buckets of the same index aggregate losslessly.
func (h *Hist) Merge(other *Hist) {
	if other == nil {
		return
	}
	for i, n := range other.buckets {
		h.buckets[i] += n
	}
	h.count += other.count
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
}

// Reset discards all observations.
func (h *Hist) Reset() {
	*h = Hist{name: h.name, unit: h.unit, help: h.help}
}

// HistBucket is one non-empty bucket of an exported histogram: Count
// observations with values <= Le (and greater than the previous
// bucket's Le).
type HistBucket struct {
	Le    uint64 `json:"le"`
	Count uint64 `json:"count"`
}

// HistDump is the machine-readable form of a histogram.
type HistDump struct {
	Name    string       `json:"name"`
	Unit    string       `json:"unit,omitempty"`
	Help    string       `json:"help,omitempty"`
	Count   uint64       `json:"count"`
	Sum     uint64       `json:"sum"`
	Mean    float64      `json:"mean"`
	Max     uint64       `json:"max"`
	P50     float64      `json:"p50"`
	P90     float64      `json:"p90"`
	P99     float64      `json:"p99"`
	Buckets []HistBucket `json:"buckets"`
}

// Dump exports the histogram.
func (h *Hist) Dump() HistDump {
	d := HistDump{
		Name: h.name, Unit: h.unit, Help: h.help,
		Count: h.count, Sum: h.sum, Mean: h.Mean(), Max: h.max,
		P50: h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99),
	}
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		_, hi := bucketBounds(i)
		le := uint64(math.MaxUint64)
		if hi < float64(math.MaxUint64) {
			// Guard the top bucket: converting 2^64 to uint64 is undefined.
			le = uint64(hi)
		}
		d.Buckets = append(d.Buckets, HistBucket{Le: le, Count: n})
	}
	return d
}

// Samples keeps every observation and answers exact nearest-rank
// percentiles. Use it only where an exact percentile or maximum is read:
// a task's request latency, whose p95 is Figure 11's tail and whose
// maximum times the bring-up window. Its memory grows with the sample
// count, so everything else records into a Hist. The zero value is
// empty and ready to use. Not safe for concurrent use.
type Samples struct {
	v      []uint64
	sum    uint64
	sorted bool
}

// Add records one sample.
func (s *Samples) Add(v uint64) {
	s.v = append(s.v, v)
	s.sum += v
	s.sorted = false
}

// Count returns the number of samples.
func (s *Samples) Count() int { return len(s.v) }

// Mean returns the arithmetic mean (0 when empty).
func (s *Samples) Mean() float64 {
	if len(s.v) == 0 {
		return 0
	}
	return float64(s.sum) / float64(len(s.v))
}

// Percentile returns the p-th percentile (0 < p <= 100) by nearest
// rank; 0 when empty.
func (s *Samples) Percentile(p float64) uint64 {
	if len(s.v) == 0 {
		return 0
	}
	if !s.sorted {
		slices.Sort(s.v)
		s.sorted = true
	}
	rank := int(math.Ceil(p / 100 * float64(len(s.v))))
	rank = max(1, min(rank, len(s.v)))
	return s.v[rank-1]
}

// Max returns the largest sample (0 when empty).
func (s *Samples) Max() uint64 { return s.Percentile(100) }

// Each calls fn for every sample. Order is unspecified (Percentile sorts
// in place), so it suits order-insensitive sinks such as a Hist.
func (s *Samples) Each(fn func(uint64)) {
	for _, v := range s.v {
		fn(v)
	}
}

// Merge adds every sample of other.
func (s *Samples) Merge(other *Samples) {
	s.v = append(s.v, other.v...)
	s.sum += other.sum
	s.sorted = false
}

// Reset discards all samples, keeping the backing array.
func (s *Samples) Reset() {
	s.v = s.v[:0]
	s.sum = 0
	s.sorted = false
}
