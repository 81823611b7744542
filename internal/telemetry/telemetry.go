// Package telemetry is the simulator's unified observability layer: a
// typed metric registry every stat producer (TLB, MMU, PWC, caches, DRAM,
// kernel, machine) registers into, log-bucketed latency histograms for
// the distributions the paper cares about, an exact sample recorder for
// the one measurement whose percentiles are reported verbatim (request
// latency), a cycle-driven sampler that turns the registry into a time
// series, and a versioned machine-readable run report (bfsim
// -metrics-out).
//
// The registry is pull-based: producers keep maintaining their own cheap
// struct counters exactly as before, and registration installs a probe
// (a closure) that reads them on demand. The hot paths therefore pay
// nothing for the registry's existence — cost only accrues when a
// snapshot or sample is actually taken. Histograms are push-based but
// sit behind a single nil check at the machine's instrumentation seam,
// shared with the obs span recorder, so disabled telemetry stays free.
package telemetry

import "fmt"

// Kind types a registered metric.
type Kind uint8

const (
	// KindCounter is a monotonically non-decreasing count.
	KindCounter Kind = iota
	// KindGauge is a point-in-time value (possibly derived, e.g. MPKI).
	KindGauge
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// metric is one registered probe.
type metric struct {
	name string
	unit string
	help string
	kind Kind
	fn   func() float64
}

// Registry holds one machine's metrics and histograms. Registration
// order is preserved: snapshots, samples and dumps all list metrics in
// the order they were registered, so time-series columns are stable.
// Not safe for concurrent use (the simulator is single-threaded).
type Registry struct {
	metrics   []metric
	index     map[string]int
	hists     []*Hist
	histIndex map[string]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: map[string]int{}, histIndex: map[string]int{}}
}

// Counter registers a monotonic counter probe. Panics on a duplicate
// name: registration happens once at machine construction, so a clash is
// a programming error, not a runtime condition.
func (r *Registry) Counter(name, unit, help string, fn func() uint64) {
	r.add(metric{name: name, unit: unit, help: help, kind: KindCounter,
		fn: func() float64 { return float64(fn()) }})
}

// Gauge registers a point-in-time value probe.
func (r *Registry) Gauge(name, unit, help string, fn func() float64) {
	r.add(metric{name: name, unit: unit, help: help, kind: KindGauge, fn: fn})
}

func (r *Registry) add(m metric) {
	if _, dup := r.index[m.name]; dup {
		panic("telemetry: duplicate metric " + m.name)
	}
	r.index[m.name] = len(r.metrics)
	r.metrics = append(r.metrics, m)
}

// Histogram registers (or returns the existing) log-bucketed histogram.
func (r *Registry) Histogram(name, unit, help string) *Hist {
	if i, ok := r.histIndex[name]; ok {
		return r.hists[i]
	}
	h := &Hist{name: name, unit: unit, help: help}
	r.histIndex[name] = len(r.hists)
	r.hists = append(r.hists, h)
	return h
}

// Hist returns a histogram by name.
func (r *Registry) Hist(name string) (*Hist, bool) {
	i, ok := r.histIndex[name]
	if !ok {
		return nil, false
	}
	return r.hists[i], true
}

// ResetHistograms clears every histogram (the warm-up boundary).
func (r *Registry) ResetHistograms() {
	for _, h := range r.hists {
		h.Reset()
	}
}

// Len reports the number of registered metrics.
func (r *Registry) Len() int { return len(r.metrics) }

// Names returns the metric names in registration order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.metrics))
	for i, m := range r.metrics {
		out[i] = m.name
	}
	return out
}

// Value reads one metric's current value by name.
func (r *Registry) Value(name string) (float64, bool) {
	i, ok := r.index[name]
	if !ok {
		return 0, false
	}
	return r.metrics[i].fn(), true
}

// read fills dst with the current value of every metric, in registration
// order. dst must have Len() capacity; it is returned for convenience.
func (r *Registry) read(dst []float64) []float64 {
	dst = dst[:0]
	for _, m := range r.metrics {
		dst = append(dst, m.fn())
	}
	return dst
}

// MetricValue is one metric's exported value.
type MetricValue struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit,omitempty"`
	Help  string  `json:"help,omitempty"`
	Kind  string  `json:"kind"`
	Value float64 `json:"value"`
}

// Snapshot is a labelled point-in-time dump of every metric.
type Snapshot struct {
	Label  string        `json:"label"`
	Values []MetricValue `json:"values"`
}

// Snapshot reads every probe.
func (r *Registry) Snapshot(label string) *Snapshot {
	s := &Snapshot{Label: label, Values: make([]MetricValue, 0, len(r.metrics))}
	for _, m := range r.metrics {
		s.Values = append(s.Values, MetricValue{
			Name: m.name, Unit: m.unit, Help: m.help, Kind: m.kind.String(), Value: m.fn(),
		})
	}
	return s
}

// Value returns a snapshot entry by name.
func (s *Snapshot) Value(name string) (float64, bool) {
	for _, v := range s.Values {
		if v.Name == name {
			return v.Value, true
		}
	}
	return 0, false
}
