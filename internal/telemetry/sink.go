package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
)

// Sink receives time-series samples as the sampler takes them, instead
// of (or in addition to) the end-of-run Series export. Begin is called
// once when the sink is installed — before any sample — with the
// registry (for names, kinds and units) and the sampling interval; Emit
// once per sample in simulated-time order; Flush when the run ends.
//
// Sinks observe every sample taken after installation, including any
// before a warm-up Reset — a streaming consumer sees the whole run,
// while Series() keeps its post-reset semantics.
type Sink interface {
	Begin(reg *Registry, every uint64) error
	Emit(s Sample) error
	Flush() error
}

// SetSink installs sink and immediately calls its Begin. Installing nil
// detaches the current sink. Emit errors do not interrupt the simulation
// (Tick sits on the scheduling loop); the first one is latched and
// returned by FlushSink.
func (s *Sampler) SetSink(sink Sink) error {
	s.sink = sink
	s.sinkErr = nil
	if sink == nil {
		return nil
	}
	return sink.Begin(s.reg, s.every)
}

// FlushSink flushes the installed sink and reports the first error seen
// on any Emit or the flush itself.
func (s *Sampler) FlushSink() error {
	if s.sink == nil {
		return nil
	}
	if err := s.sink.Flush(); err != nil && s.sinkErr == nil {
		s.sinkErr = err
	}
	return s.sinkErr
}

func (s *Sampler) emit(sample Sample) {
	if s.sink == nil {
		return
	}
	if err := s.sink.Emit(sample); err != nil && s.sinkErr == nil {
		s.sinkErr = err
	}
}

// jsonlSeriesHeader is the first line of a JSONL series export.
type jsonlSeriesHeader struct {
	Type          string   `json:"type"` // "series-header"
	SchemaVersion int      `json:"schemaVersion"`
	Tool          string   `json:"tool"`
	EveryCycles   uint64   `json:"everyCycles"`
	Names         []string `json:"names"`
}

// jsonlSample is one sample row: values align with the header's names.
type jsonlSample struct {
	Type   string    `json:"type"` // "sample"
	Cycle  uint64    `json:"cycle"`
	Values []float64 `json:"values"`
}

// JSONLSink streams samples as JSON lines: one series-header line (the
// column names, in registration order), then one row per sample.
type JSONLSink struct {
	bw   *bufio.Writer
	enc  *json.Encoder
	tool string
}

// NewJSONLSink wraps w. tool records provenance in the header line.
func NewJSONLSink(w io.Writer, tool string) *JSONLSink {
	bw := bufio.NewWriter(w)
	return &JSONLSink{bw: bw, enc: json.NewEncoder(bw), tool: tool}
}

// Begin writes the header line.
func (j *JSONLSink) Begin(reg *Registry, every uint64) error {
	return j.enc.Encode(jsonlSeriesHeader{
		Type: "series-header", SchemaVersion: SchemaVersion, Tool: j.tool,
		EveryCycles: every, Names: reg.Names(),
	})
}

// Emit writes one sample row.
func (j *JSONLSink) Emit(s Sample) error {
	return j.enc.Encode(jsonlSample{Type: "sample", Cycle: s.Cycle, Values: s.Values})
}

// Flush drains the buffer.
func (j *JSONLSink) Flush() error { return j.bw.Flush() }
