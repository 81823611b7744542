package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// TraceSchemaVersion identifies the exported trace layout (Chrome JSON
// otherData and JSONL header). Any change to the key set MUST bump this
// constant — the golden schema test (schema_test.go) and CI's obs-smoke
// job fail otherwise.
const TraceSchemaVersion = 2

// Stream is one process-scope worth of observability data headed for an
// exporter: a node, an architecture, or the fleet control plane. Spans
// come from an obs.Recorder.
type Stream struct {
	// Name labels the stream ("babelfish/node3", "baseline", "control").
	Name  string
	Spans []Span
}

// chromeEvent is one entry of the Chrome trace-event format. Ph "X" is a
// complete event (ts+dur), "i" an instant, "M" metadata. Perfetto loads
// the resulting file directly; ts/dur are simulated time (cycles or
// epochs), displayed as microseconds.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   uint64            `json:"ts"`
	Dur  uint64            `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	S    string            `json:"s,omitempty"` // instant scope ("t")
	Args map[string]string `json:"args,omitempty"`
}

// chromeTrace is the exported file: the event array plus provenance.
type chromeTrace struct {
	TraceEvents []chromeEvent     `json:"traceEvents"`
	OtherData   map[string]string `json:"otherData"`
}

// spanArgs renders a span's identity for the Args map. Chrome sorts map
// keys when marshalling, so the encoding is deterministic.
func spanArgs(s Span) map[string]string {
	a := map[string]string{
		"id":   fmt.Sprintf("%016x", uint64(s.ID)),
		"kind": s.Kind.String(),
	}
	if s.Parent != 0 {
		a["parent"] = fmt.Sprintf("%016x", uint64(s.Parent))
	}
	if s.Node >= 0 {
		a["node"] = fmt.Sprint(s.Node)
	}
	if s.Task >= 0 {
		a["task"] = fmt.Sprint(s.Task)
	}
	if s.PID >= 0 {
		a["pid"] = fmt.Sprint(s.PID)
	}
	if s.Detail != "" {
		a["detail"] = s.Detail
	}
	return a
}

// spanTid maps a span to a thread lane: core ID for machine spans, lane
// 0 for control-plane spans.
func spanTid(s Span) int {
	if s.Core >= 0 {
		return s.Core
	}
	return 0
}

// WriteChrome exports the streams as one Chrome trace-event JSON file.
// Every stream becomes a Perfetto process (pid = stream index) named by
// a metadata event; spans are complete events on per-core thread lanes,
// zero-duration spans are instants. Deterministic: streams and spans
// are emitted in the order given.
func WriteChrome(w io.Writer, tool string, streams []Stream) error {
	ct := chromeTrace{
		TraceEvents: []chromeEvent{},
		OtherData: map[string]string{
			"schemaVersion": fmt.Sprint(TraceSchemaVersion),
			"tool":          tool,
			"timebase":      "simulated (cycles for machine streams, epochs for control streams)",
		},
	}
	for pid, st := range streams {
		ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
			Args: map[string]string{"name": st.Name},
		})
		for _, s := range st.Spans {
			ev := chromeEvent{
				Name: s.Name, Cat: s.Kind.String(), Ts: s.Start,
				Pid: pid, Tid: spanTid(s), Args: spanArgs(s),
			}
			if s.Dur > 0 {
				ev.Ph, ev.Dur = "X", s.Dur
			} else {
				ev.Ph, ev.S = "i", "t"
			}
			ct.TraceEvents = append(ct.TraceEvents, ev)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(ct)
}

// jsonlSpan is one span line of the JSONL export.
type jsonlSpan struct {
	Type   string `json:"type"` // "span"
	Stream string `json:"stream"`
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Kind   string `json:"kind"`
	Name   string `json:"name"`
	Node   *int   `json:"node,omitempty"`
	Core   *int   `json:"core,omitempty"`
	Task   *int   `json:"task,omitempty"`
	PID    *int   `json:"pid,omitempty"`
	Start  uint64 `json:"start"`
	Dur    uint64 `json:"dur"`
	Detail string `json:"detail,omitempty"`
}

// jsonlHeader is the first line of the JSONL export.
type jsonlHeader struct {
	Type          string `json:"type"` // "header"
	SchemaVersion int    `json:"schemaVersion"`
	Tool          string `json:"tool"`
}

func optInt(v int) *int {
	if v < 0 {
		return nil
	}
	c := v
	return &c
}

// WriteJSONL exports the streams as a compact JSON-lines file: a header
// line, then one line per span, in stream order.
func WriteJSONL(w io.Writer, tool string, streams []Stream) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(jsonlHeader{Type: "header", SchemaVersion: TraceSchemaVersion, Tool: tool}); err != nil {
		return err
	}
	for _, st := range streams {
		for _, s := range st.Spans {
			line := jsonlSpan{
				Type: "span", Stream: st.Name,
				ID:   fmt.Sprintf("%016x", uint64(s.ID)),
				Kind: s.Kind.String(), Name: s.Name,
				Node: optInt(s.Node), Core: optInt(s.Core),
				Task: optInt(s.Task), PID: optInt(s.PID),
				Start: s.Start, Dur: s.Dur, Detail: s.Detail,
			}
			if s.Parent != 0 {
				line.Parent = fmt.Sprintf("%016x", uint64(s.Parent))
			}
			if err := enc.Encode(line); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
