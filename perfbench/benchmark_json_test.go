package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json at the repository root declares what a run prints; it
// must agree with the code that prints it.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloadList) {
		t.Errorf("BENCHMARK.json lists %d workloads, the code has %d", len(spec.Workloads), len(workloadList))
	}
	e2e := endToEndMetrics(&pass{opMS: []float64{1}, refMS: []float64{1}, setupS: []float64{1}})
	if len(spec.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, a run prints %d", len(spec.EndToEnd), len(e2e))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit || m.Better != "lower" {
			t.Errorf("end-to-end %s: printed %+v (present %v)", m.Name, got, ok)
		}
	}
	if len(spec.PerLayer) != len(perLayerUnits) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, a run prints %d", len(spec.PerLayer), len(perLayerUnits))
	}
	for i, m := range spec.PerLayer {
		if want := perLayerUnits[i]; m.Name != want[0] || m.Unit != want[1] || m.Better != want[2] {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, code %v", i, m, want)
		}
	}
}
