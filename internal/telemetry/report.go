package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// SchemaVersion identifies the JSON run-report layout. Any change to the
// set of keys a report can contain MUST bump this constant — the golden
// schema test (schema_test.go) and CI's bfsim -metrics-out check fail
// otherwise, and downstream plotting pipelines key on it.
const SchemaVersion = 1

// Report is one run's machine-readable telemetry artifact: the
// configuration that produced it, plus a full registry dump, histogram
// quantiles and (when sampling was on) the time series for every
// architecture the run covered. BENCH_*.json trajectories and
// internal/experiments comparisons consume this format.
type Report struct {
	SchemaVersion int               `json:"schemaVersion"`
	Tool          string            `json:"tool"`
	Config        map[string]string `json:"config"`
	Archs         []ArchReport      `json:"archs"`
}

// ArchReport is one architecture's telemetry within a report.
type ArchReport struct {
	Arch       string        `json:"arch"`
	Metrics    []MetricValue `json:"metrics"`
	Histograms []HistDump    `json:"histograms"`
	Series     *Series       `json:"series,omitempty"`
}

// NewReport starts a report for the given tool and configuration.
func NewReport(tool string, config map[string]string) *Report {
	return &Report{SchemaVersion: SchemaVersion, Tool: tool, Config: config, Archs: nil}
}

// Dump reads every metric and histogram of r into one architecture's
// section of a run report, with s's time series when s is non-nil. A
// machine's -metrics-out section and a flight-recorder bundle's
// metrics.json are both built here.
func (r *Registry) Dump(arch string, s *Sampler) ArchReport {
	a := ArchReport{Arch: arch, Metrics: r.Snapshot(arch).Values}
	for _, h := range r.hists {
		a.Histograms = append(a.Histograms, h.Dump())
	}
	if s != nil {
		a.Series = s.Series()
	}
	return a
}

// AddArch appends one architecture's dump.
func (r *Report) AddArch(a ArchReport) { r.Archs = append(r.Archs, a) }

// Arch returns the named architecture's report.
func (r *Report) Arch(name string) (*ArchReport, bool) {
	for i := range r.Archs {
		if r.Archs[i].Arch == name {
			return &r.Archs[i], true
		}
	}
	return nil, false
}

// Histogram returns the named histogram dump of an arch report.
func (a *ArchReport) Histogram(name string) (*HistDump, bool) {
	for i := range a.Histograms {
		if a.Histograms[i].Name == name {
			return &a.Histograms[i], true
		}
	}
	return nil, false
}

// Metric returns the named metric value of an arch report.
func (a *ArchReport) Metric(name string) (float64, bool) {
	for _, m := range a.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// WriteJSON emits the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes the report to path.
func (r *Report) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadReport parses a report and rejects unknown schema versions.
func ReadReport(rd io.Reader) (*Report, error) {
	var r Report
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("telemetry: parse report: %w", err)
	}
	if r.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("telemetry: report schema version %d, this build understands %d",
			r.SchemaVersion, SchemaVersion)
	}
	return &r, nil
}

// ReadReportFile parses the report at path.
func ReadReportFile(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadReport(f)
}
