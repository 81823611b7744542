package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"babelfish/internal/memsys"
	"babelfish/internal/obs"
)

// exportObs renders a cluster's streams through both exporters.
func exportObs(t *testing.T, c *Cluster) (chrome, jsonl []byte) {
	t.Helper()
	streams := c.ObsStreams()
	var cb, jb bytes.Buffer
	if err := obs.WriteChrome(&cb, "fleet", streams); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteJSONL(&jb, "fleet", streams); err != nil {
		t.Fatal(err)
	}
	return cb.Bytes(), jb.Bytes()
}

// allSpans flattens every stream's spans for ancestry walks.
func allSpans(c *Cluster) []obs.Span {
	var out []obs.Span
	for _, st := range c.ObsStreams() {
		out = append(out, st.Spans...)
	}
	return out
}

// TestFleetObsJobsIdentical: with tracing on, the chaos sweep's exports
// are byte-identical between -jobs=1 and -jobs=4 — the acceptance bar
// for deterministic span IDs under parallel node stepping.
func TestFleetObsJobsIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep is slow")
	}
	runAt := func(jobs int) (chrome, jsonl []byte) {
		cfg := chaosConfig()
		cfg.Jobs = jobs
		cfg.Obs.Enabled = true
		return exportObs(t, mustRun(t, cfg))
	}
	c1, j1 := runAt(1)
	c4, j4 := runAt(4)
	if !bytes.Equal(c1, c4) {
		t.Errorf("chrome trace differs between jobs=1 (%d bytes) and jobs=4 (%d bytes)", len(c1), len(c4))
	}
	if !bytes.Equal(j1, j4) {
		t.Errorf("jsonl trace differs between jobs=1 (%d bytes) and jobs=4 (%d bytes)", len(j1), len(j4))
	}
	if len(j1) == 0 || !bytes.Contains(c1, []byte("injected fault")) {
		t.Fatalf("export suspiciously empty: chrome=%d jsonl=%d bytes", len(c1), len(j1))
	}
}

// TestFleetObsExportsEachActionOnce: in a chaos run's export every crash
// and every placement of the event log is recorded exactly once in the
// control stream. A record is matched by its name or its kind, whatever
// the line type, so a second flat copy of the same action would count as
// a duplicate.
func TestFleetObsExportsEachActionOnce(t *testing.T) {
	cfg := chaosConfig()
	cfg.Obs.Enabled = true
	c := mustRun(t, cfg)
	want := map[string]int{}
	for _, e := range c.Events() {
		switch e.Kind {
		case EvCrash:
			want[fmt.Sprintf("crash node %d epoch %d", e.Node, e.Epoch)]++
		case EvPlaced:
			want[fmt.Sprintf("placed ct %d node %d epoch %d", e.Container, e.Node, e.Epoch)]++
		}
	}
	if len(want) == 0 {
		t.Fatal("chaos run recorded no crash or placement; the test is vacuous")
	}
	_, jsonl := exportObs(t, c)
	got := map[string]int{}
	for _, raw := range bytes.Split(bytes.TrimSpace(jsonl), []byte("\n")) {
		var line map[string]any
		if err := json.Unmarshal(raw, &line); err != nil {
			t.Fatalf("bad JSONL line %q: %v", raw, err)
		}
		if line["stream"] != "control" {
			continue
		}
		// field reads the first numeric key present (span lines and any
		// flat record name the same subject differently).
		field := func(keys ...string) int {
			for _, k := range keys {
				if v, ok := line[k].(float64); ok {
					return int(v)
				}
			}
			return -1
		}
		node, ct, at := field("node", "core"), field("task", "pid"), field("start", "at")
		switch name, kind := line["name"], line["kind"]; {
		case name == EvCrash.String() || kind == EvCrash.String():
			got[fmt.Sprintf("crash node %d epoch %d", node, at)]++
		case name == EvPlaced.String() || kind == obs.KPlace.String():
			got[fmt.Sprintf("placed ct %d node %d epoch %d", ct, node, at)]++
		}
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("%s: exported %d times, want %d", k, got[k], n)
		}
	}
	for k := range got {
		if want[k] == 0 {
			t.Errorf("%s: exported but not in the event log", k)
		}
	}
}

// TestFleetObsEpochNesting: node epoch spans (cycle timebase) parent to
// the control plane's epoch spans (epoch timebase), and machine quantum
// spans parent to their node's epoch spans — the cross-layer links that
// make one causal tree out of three timebases.
func TestFleetObsEpochNesting(t *testing.T) {
	cfg := testConfig(2, 4)
	cfg.Obs.Enabled = true
	c := mustRun(t, cfg)
	streams := c.ObsStreams()
	if len(streams) != 3 || streams[0].Name != "control" {
		t.Fatalf("want control + 2 node streams, got %d", len(streams))
	}
	ctlEpochs := map[obs.SpanID]bool{}
	for _, s := range streams[0].Spans {
		if s.Kind == obs.KEpoch {
			ctlEpochs[s.ID] = true
		}
	}
	if len(ctlEpochs) != cfg.Epochs {
		t.Fatalf("control epoch spans = %d, want %d", len(ctlEpochs), cfg.Epochs)
	}
	var nodeEpochs, quanta int
	for _, st := range streams[1:] {
		nodeEpochIDs := map[obs.SpanID]bool{}
		for _, s := range st.Spans {
			if s.Kind == obs.KEpoch {
				nodeEpochs++
				nodeEpochIDs[s.ID] = true
				if !ctlEpochs[s.Parent] {
					t.Fatalf("node epoch span not parented to a control epoch: %+v", s)
				}
			}
		}
		for _, s := range st.Spans {
			if s.Kind == obs.KQuantum {
				quanta++
				if !nodeEpochIDs[s.Parent] {
					t.Fatalf("quantum span not parented to a node epoch: %+v", s)
				}
			}
		}
	}
	if nodeEpochs == 0 || quanta == 0 {
		t.Fatalf("nodeEpochs=%d quanta=%d, want both > 0", nodeEpochs, quanta)
	}
}

// lossyConfig is a run engineered to lose a container: one node whose
// crash at epoch 2 outlives the run, so every placement retry fails and
// the retry budget (1) exhausts — tripping the auditor.
func lossyConfig() Config {
	cfg := testConfig(1, 2)
	cfg.Crash = memsys.InjectConfig{Nth: 2, MaxFaults: 1}
	cfg.RestartEpochs = 100
	cfg.RetryBudget = 1
	return cfg
}

// TestFleetObsCausalChainAndFlight: the acceptance scenario. A seeded
// chaos run that trips the auditor must (a) write a flight-recorder
// bundle and (b) record a violation span whose ancestry walks back to
// the injected fault that caused it.
func TestFleetObsCausalChainAndFlight(t *testing.T) {
	dir := t.TempDir()
	cfg := lossyConfig()
	cfg.Obs.Enabled = true
	cfg.Obs.FlightDir = dir
	c := mustRun(t, cfg)
	if c.ctr.lost == 0 {
		t.Fatal("scenario failed to lose a container; causal-chain test is vacuous")
	}
	if rep := c.Audit(); rep.OK() {
		t.Fatal("audit passed despite lost container")
	}

	// (a) Flight bundles: at least one trigger dump plus the final
	// audit-violation dump, each with the full post-mortem file set.
	if c.FlightBundles() < 2 {
		t.Fatalf("flight bundles = %d, want >= 2 (trigger + final)", c.FlightBundles())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != c.FlightBundles() {
		t.Fatalf("bundle dirs on disk = %d, want %d", len(entries), c.FlightBundles())
	}
	var sawFinal bool
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "final") {
			sawFinal = true
		}
		for _, f := range []string{"trace.json", "trace.jsonl", "metrics.prom", "audit.txt"} {
			b, err := os.ReadFile(filepath.Join(dir, e.Name(), f))
			if err != nil {
				t.Fatalf("bundle %s missing %s: %v", e.Name(), f, err)
			}
			if len(b) == 0 {
				t.Fatalf("bundle %s: %s is empty", e.Name(), f)
			}
		}
	}
	if !sawFinal {
		t.Error("no final audit-violation bundle written")
	}

	// (b) Causal chain: the violation span's ancestry must reach the
	// injected crash that started the failure sequence.
	spans := allSpans(c)
	var lost *obs.Span
	for i := range spans {
		if spans[i].Kind == obs.KViolation {
			lost = &spans[i]
			break
		}
	}
	if lost == nil {
		t.Fatal("no violation span recorded")
	}
	chain := obs.Ancestry(spans, lost.ID)
	var names []string
	for _, s := range chain {
		names = append(names, s.Name)
	}
	got := strings.Join(names, " < ")
	if !strings.Contains(got, "crash") {
		t.Fatalf("violation ancestry never reaches the injected fault: %s", got)
	}
	root := chain[len(chain)-1]
	if root.Name != "crash" || root.Detail != "injected fault" || root.Parent != 0 {
		t.Fatalf("chain root is not the injected crash: %+v (chain: %s)", root, got)
	}
}

// TestFleetObsOffIsUntouched: with obs off nothing is recorded, no
// bundles appear, and the event log matches a traced twin — observation
// must never change the simulation.
func TestFleetObsOffIsUntouched(t *testing.T) {
	plain := mustRun(t, lossyConfig())
	if plain.ObsStreams() != nil || plain.FlightBundles() != 0 {
		t.Fatalf("disabled cluster produced obs output: streams=%v bundles=%d",
			plain.ObsStreams(), plain.FlightBundles())
	}
	cfg := lossyConfig()
	cfg.Obs.Enabled = true
	cfg.Obs.FlightDir = t.TempDir()
	traced := mustRun(t, cfg)
	if eventLog(plain) != eventLog(traced) {
		t.Fatal("tracing changed the event log")
	}
	if plain.Report() != traced.Report() {
		t.Fatal("tracing changed the fleet report")
	}
}
