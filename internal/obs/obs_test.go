package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestIDsDeterministicAndNonZero(t *testing.T) {
	a := NewRecorder(42, 3, 16)
	b := NewRecorder(42, 3, 16)
	for i := 0; i < 1000; i++ {
		ia, ib := a.NewID(), b.NewID()
		if ia != ib {
			t.Fatalf("id %d diverged: %x vs %x", i, ia, ib)
		}
		if ia == 0 {
			t.Fatalf("id %d is zero", i)
		}
	}
	// Different scope or seed must produce a different stream.
	c := NewRecorder(42, 4, 16)
	d := NewRecorder(43, 3, 16)
	if a2, c2 := NewRecorder(42, 3, 16).NewID(), c.NewID(); a2 == c2 {
		t.Fatal("scope does not affect IDs")
	}
	if a2, d2 := NewRecorder(42, 3, 16).NewID(), d.NewID(); a2 == d2 {
		t.Fatal("seed does not affect IDs")
	}
}

func TestRecorderRingBounds(t *testing.T) {
	r := NewRecorder(1, 0, 4)
	for i := 0; i < 10; i++ {
		r.Record(Span{Kind: KQuantum, Name: "q", Start: uint64(i), Node: -1, Core: -1, Task: -1, PID: -1})
	}
	if r.Len() != 4 || r.Total() != 10 {
		t.Fatalf("len=%d total=%d", r.Len(), r.Total())
	}
	spans := r.Spans()
	for i, s := range spans {
		if s.Start != uint64(6+i) {
			t.Fatalf("span %d start=%d, want %d (oldest-first retained window)", i, s.Start, 6+i)
		}
	}
	if _, ok := r.Find(func(s Span) bool { return s.Start == 9 }); !ok {
		t.Fatal("Find missed the newest span")
	}
	if _, ok := r.Find(func(s Span) bool { return s.Start == 0 }); ok {
		t.Fatal("Find returned an evicted span")
	}
}

func TestRecordAssignsID(t *testing.T) {
	r := NewRecorder(7, 7, 8)
	id := r.Record(Span{Kind: KEvent, Name: "crash"})
	if id == 0 {
		t.Fatal("Record minted a zero ID")
	}
	pre := r.NewID()
	id2 := r.Record(Span{ID: pre, Kind: KEvent, Name: "queued", Parent: id})
	if id2 != pre {
		t.Fatalf("Record replaced a pre-minted ID: %x vs %x", id2, pre)
	}
}

func TestAncestry(t *testing.T) {
	r := NewRecorder(42, ControlScope, 32)
	crash := r.Record(Span{Kind: KEvent, Name: "crash"})
	condemn := r.Record(Span{Kind: KEvent, Name: "condemn", Parent: crash})
	queued := r.Record(Span{Kind: KEvent, Name: "queued", Parent: condemn})
	lost := r.Record(Span{Kind: KViolation, Name: "lost", Parent: queued})
	chain := Ancestry(r.Spans(), lost)
	var names []string
	for _, s := range chain {
		names = append(names, s.Name)
	}
	if got := strings.Join(names, "<"); got != "lost<queued<condemn<crash" {
		t.Fatalf("ancestry chain = %s", got)
	}
	// A missing parent truncates the chain instead of failing.
	if c := Ancestry(r.Spans()[1:], lost); len(c) != 3 {
		t.Fatalf("truncated chain length = %d, want 3", len(c))
	}
}

func TestKindStrings(t *testing.T) {
	for k := 0; k < NumKinds(); k++ {
		if s := Kind(k).String(); s == "" || strings.HasPrefix(s, "Kind(") {
			t.Errorf("Kind(%d) has no name", k)
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Error("unknown kind fallback wrong")
	}
}

// sampleStreams builds a two-stream export exercising every encoding
// path: spans with and without parents, details and durations, on the
// control plane (fleet events, a request, a placement) and on a node
// (epoch, quantum, fault and an OOM-kill instant).
func sampleStreams(t *testing.T) []Stream {
	t.Helper()
	ctl := NewRecorder(42, ControlScope, 64)
	crash := ctl.Record(Span{Kind: KEvent, Name: "crash", Node: 2, Core: -1, Task: -1, PID: -1, Start: 3, Detail: "injected fault"})
	req := ctl.Record(Span{Kind: KRequest, Name: "container 5", Node: 0, Core: -1, Task: 5, PID: -1, Start: 0, Dur: 6})
	ctl.Record(Span{Kind: KEvent, Name: "queued", Parent: crash, Node: -1, Core: -1, Task: 5, PID: -1, Start: 4})
	place := ctl.Record(Span{Kind: KPlace, Name: "placed", Parent: req, Node: 0, Core: -1, Task: 5, PID: -1, Start: 6})
	ctl.Record(Span{Kind: KEvent, Name: "fence", Parent: place, Node: 2, Core: -1, Task: 5, PID: -1, Start: 7})
	ctl.Record(Span{Kind: KEvent, Name: "shed", Node: 1, Core: -1, Task: 4, PID: -1, Start: 9})
	node := NewRecorder(42, 0, 64)
	ep := node.Record(Span{Kind: KEpoch, Name: "epoch 1", Node: 0, Core: -1, Task: -1, PID: -1, Start: 1000, Dur: 500})
	q := node.NewID()
	node.Record(Span{Kind: KFault, Name: "fault", Parent: q, Node: 0, Core: 1, Task: -1, PID: 3, Start: 1150, Dur: 900, Detail: "va=0x2000 faults=1"})
	node.Record(Span{Kind: KEvent, Name: "oomkill", Parent: q, Node: 0, Core: 1, Task: -1, PID: 3, Start: 1280})
	node.Record(Span{ID: q, Kind: KQuantum, Name: "quantum", Parent: ep, Node: 0, Core: 1, Task: -1, PID: 3, Start: 1100, Dur: 200})
	return []Stream{
		{Name: "control", Spans: ctl.Spans()},
		{Name: "node0", Spans: node.Spans()},
	}
}

func TestWriteChromeValid(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, "test", sampleStreams(t)); err != nil {
		t.Fatal(err)
	}
	var ct struct {
		TraceEvents []map[string]any  `json:"traceEvents"`
		OtherData   map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if ct.OtherData["schemaVersion"] != "2" || ct.OtherData["tool"] != "test" {
		t.Fatalf("otherData = %v", ct.OtherData)
	}
	phases := map[string]int{}
	names := map[string]bool{}
	for _, e := range ct.TraceEvents {
		ph, _ := e["ph"].(string)
		phases[ph]++
		if n, ok := e["name"].(string); ok {
			names[n] = true
		}
		if _, ok := e["pid"].(float64); !ok {
			t.Fatalf("event without numeric pid: %v", e)
		}
	}
	if phases["M"] != 2 {
		t.Fatalf("want 2 process_name metadata events, got %d", phases["M"])
	}
	if phases["X"] == 0 || phases["i"] == 0 {
		t.Fatalf("phases missing complete/instant events: %v", phases)
	}
	for _, want := range []string{"process_name", "quantum", "fault", "oomkill", "crash", "placed", "fence", "shed"} {
		if !names[want] {
			t.Fatalf("chrome export missing event name %q", want)
		}
	}
	// Determinism: the same streams encode to the same bytes.
	var buf2 bytes.Buffer
	if err := WriteChrome(&buf2, "test", sampleStreams(t)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("chrome export is not byte-deterministic")
	}
}

func TestWriteJSONLValid(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, "test", sampleStreams(t)); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	var types []string
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		typ, _ := line["type"].(string)
		types = append(types, typ)
	}
	if types[0] != "header" {
		t.Fatalf("first line type = %q", types[0])
	}
	nspans := 0
	for _, typ := range types[1:] {
		if typ != "span" {
			t.Fatalf("line type %q, want only spans after the header", typ)
		}
		nspans++
	}
	if nspans != 10 {
		t.Fatalf("spans=%d, want 10", nspans)
	}
}

func TestWriteBundle(t *testing.T) {
	dir := t.TempDir()
	path, err := WriteBundle(dir, Bundle{
		Label:       "babelfish-epoch007-lost",
		Tool:        "bffleet",
		Trigger:     "container lost",
		Streams:     sampleStreams(t),
		MetricsProm: []byte("# TYPE fleet_lost counter\nfleet_lost 1\n"),
		Audit:       "fleet audit: 1 violation\n  - container 5: lost",
	})
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "babelfish-epoch007-lost" {
		t.Fatalf("bundle path = %s", path)
	}
	for _, f := range []string{"trace.json", "trace.jsonl", "metrics.prom", "audit.txt"} {
		b, err := os.ReadFile(filepath.Join(path, f))
		if err != nil {
			t.Fatalf("bundle missing %s: %v", f, err)
		}
		if len(b) == 0 {
			t.Fatalf("bundle file %s is empty", f)
		}
	}
	audit, _ := os.ReadFile(filepath.Join(path, "audit.txt"))
	if !strings.Contains(string(audit), "trigger: container lost") {
		t.Fatalf("audit.txt missing trigger provenance:\n%s", audit)
	}
	if _, err := WriteBundle(dir, Bundle{}); err == nil {
		t.Fatal("unlabelled bundle accepted")
	}
}
