package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"sort"
	"testing"
)

// tracePath / seriesPath optionally point at real tool-produced exports
// (`go test ./internal/obs -args -obs.trace=... -obs.series=...`). CI's
// obs-smoke job uses these to catch schema drift in actual bfsim/bffleet
// output; without them the tests validate synthetic exports.
var (
	tracePath  = flag.String("obs.trace", "", "path to a -trace-out Chrome JSON file to validate")
	seriesPath = flag.String("obs.series", "", "path to a -series-out JSONL file to validate")
)

// goldenTracePaths freezes the Chrome-export key shape of
// TraceSchemaVersion 2. "args" is a free-form string map (its keys vary
// by event kind) and is skipped like the report schema's "config".
var goldenTracePaths = []string{
	"otherData",
	"traceEvents",
	"traceEvents[].args",
	"traceEvents[].cat",
	"traceEvents[].dur",
	"traceEvents[].name",
	"traceEvents[].ph",
	"traceEvents[].pid",
	"traceEvents[].s",
	"traceEvents[].tid",
	"traceEvents[].ts",
}

var requiredTracePaths = []string{
	"otherData",
	"traceEvents",
	"traceEvents[].name",
	"traceEvents[].ph",
	"traceEvents[].pid",
	"traceEvents[].tid",
	"traceEvents[].ts",
}

// goldenJSONLPaths freezes the key set of every JSONL line type
// combined (header + span); each line contributes only the keys its type
// defines, so the union is validated per line below.
var goldenJSONLPaths = []string{
	"core",
	"detail",
	"dur",
	"id",
	"kind",
	"name",
	"node",
	"parent",
	"pid",
	"schemaVersion",
	"start",
	"stream",
	"task",
	"tool",
	"type",
}

// collectKeyPaths mirrors the telemetry schema test: every object key
// becomes a dotted path, "[]" marks array traversal, and the free-form
// "args" subtree is not descended into.
func collectKeyPaths(v any, prefix string, into map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, child := range x {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			into[p] = true
			if k == "args" || k == "otherData" {
				continue
			}
			collectKeyPaths(child, p, into)
		}
	case []any:
		for _, child := range x {
			collectKeyPaths(child, prefix+"[]", into)
		}
	}
}

func TestTraceSchemaGolden(t *testing.T) {
	var raw []byte
	if *tracePath != "" {
		b, err := os.ReadFile(*tracePath)
		if err != nil {
			t.Fatalf("read -obs.trace file: %v", err)
		}
		raw = b
	} else {
		var buf bytes.Buffer
		if err := WriteChrome(&buf, "test", sampleStreams(t)); err != nil {
			t.Fatal(err)
		}
		raw = buf.Bytes()
	}
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	got := make(map[string]bool)
	collectKeyPaths(v, "", got)
	golden := make(map[string]bool, len(goldenTracePaths))
	for _, p := range goldenTracePaths {
		golden[p] = true
	}
	var unknown []string
	for p := range got {
		if !golden[p] {
			unknown = append(unknown, p)
		}
	}
	sort.Strings(unknown)
	if len(unknown) > 0 {
		t.Errorf("trace contains key paths not in the TraceSchemaVersion %d golden set "+
			"(bump TraceSchemaVersion and update goldenTracePaths): %v", TraceSchemaVersion, unknown)
	}
	for _, p := range requiredTracePaths {
		if !got[p] {
			t.Errorf("required trace key path %q missing", p)
		}
	}
	// Semantic spot checks valid for real files too.
	var ct struct {
		OtherData map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(raw, &ct); err != nil {
		t.Fatal(err)
	}
	if ct.OtherData["schemaVersion"] == "" || ct.OtherData["tool"] == "" {
		t.Fatalf("otherData missing provenance: %v", ct.OtherData)
	}
}

// seriesRaw returns the bytes to validate: the external -obs.series file
// or a synthetic JSONL export (the trace JSONL shares the line schema
// with the telemetry series sink's header/row layout where applicable).
func TestJSONLSchemaGolden(t *testing.T) {
	var raw []byte
	if *seriesPath != "" {
		b, err := os.ReadFile(*seriesPath)
		if err != nil {
			t.Fatalf("read -obs.series file: %v", err)
		}
		raw = b
	} else {
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, "test", sampleStreams(t)); err != nil {
			t.Fatal(err)
		}
		raw = buf.Bytes()
	}
	golden := make(map[string]bool, len(goldenJSONLPaths))
	for _, p := range goldenJSONLPaths {
		golden[p] = true
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n := 0
	sawHeader := false
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", n+1, err)
		}
		n++
		typ, _ := line["type"].(string)
		if n == 1 {
			// Both the trace JSONL and the series sink lead with a typed
			// header line carrying schema provenance.
			if typ != "header" && typ != "series-header" {
				t.Fatalf("first line type = %q, want a header", typ)
			}
			sawHeader = true
		}
		for k := range line {
			// Series rows carry free-form metric-name keys under "values";
			// skip that subtree like the trace's "args".
			if typ == "sample" && (k == "values") {
				continue
			}
			if typ == "series-header" && (k == "names") {
				continue
			}
			if typ == "sample" || typ == "series-header" {
				if k == "type" || k == "cycle" || k == "epoch" || k == "values" ||
					k == "schemaVersion" || k == "tool" || k == "everyCycles" || k == "names" {
					continue
				}
				t.Errorf("line %d (%s): unknown key %q", n, typ, k)
				continue
			}
			if !golden[k] {
				t.Errorf("line %d (%s): key %q not in the TraceSchemaVersion %d golden set "+
					"(bump TraceSchemaVersion and update goldenJSONLPaths)", n, typ, k, TraceSchemaVersion)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawHeader || n < 2 {
		t.Fatalf("export has %d lines, header=%v", n, sawHeader)
	}
}

func TestTraceSchemaVersionIsTwo(t *testing.T) {
	if TraceSchemaVersion != 2 {
		t.Fatalf("TraceSchemaVersion = %d: update the golden sets in schema_test.go "+
			"for the new schema, then adjust this test", TraceSchemaVersion)
	}
}
