package obs

import (
	"fmt"
	"os"
	"path/filepath"

	"babelfish/internal/telemetry"
)

// Bundle is one post-mortem artifact: everything needed to explain a
// failure after the fact, assembled at the moment the trigger fired.
// WriteBundle lays it out as a directory so each piece opens in its
// native tool (Perfetto for the trace, the run-report readers for the
// metrics, a pager for the audit report).
type Bundle struct {
	// Label names the bundle directory. Deterministic — derived from the
	// run configuration and simulated time, never a wall clock — so two
	// identical runs produce identically-named bundles.
	Label string
	// Tool and Trigger record provenance ("bffleet", "container lost").
	Tool    string
	Trigger string
	// Streams is the flight-recorder contents: the bounded recent-span
	// window of every recorder at trigger time.
	Streams []Stream
	// Metrics is the registry at trigger time, as a one-arch run report.
	Metrics *telemetry.Report
	// Audit is the rendered audit report that fired (or confirmed) the
	// trigger.
	Audit string
}

// WriteBundle writes the bundle under dir/<Label>/ and returns the
// bundle directory. Files: trace.json (Chrome, Perfetto-loadable),
// metrics.json (registry snapshot, a telemetry run report), audit.txt
// (report + trigger provenance). An existing bundle directory is
// overwritten — re-running the same seed regenerates the same artifact.
func WriteBundle(dir string, b Bundle) (string, error) {
	if b.Label == "" {
		return "", fmt.Errorf("obs: bundle needs a label")
	}
	path := filepath.Join(dir, b.Label)
	if err := os.MkdirAll(path, 0o755); err != nil {
		return "", fmt.Errorf("obs: create bundle dir: %w", err)
	}
	if err := WriteTraceFile(filepath.Join(path, "trace.json"), b.Tool, b.Streams); err != nil {
		return "", err
	}
	if err := b.Metrics.WriteFile(filepath.Join(path, "metrics.json")); err != nil {
		return "", err
	}
	audit := fmt.Sprintf("trigger: %s\ntool: %s\n\n%s\n", b.Trigger, b.Tool, b.Audit)
	if err := os.WriteFile(filepath.Join(path, "audit.txt"), []byte(audit), 0o644); err != nil {
		return "", err
	}
	return path, nil
}
