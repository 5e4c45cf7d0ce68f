package main

import (
	"encoding/json"
	"os"
	"testing"
)

// The metric tables the benchmark prints agree with BENCHMARK.json at the
// repository root, name for name and unit for unit.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json has %s, the benchmark has %s", i, w.Name, workloadNames[i])
		}
	}
}

// Every printed metric is present even when no process completed, so a
// failed run still prints a well-formed result.
func TestMetricsAlwaysComplete(t *testing.T) {
	if got := endToEndMetrics(nil, nil); len(got) != len(endToEnd) {
		t.Errorf("end-to-end metrics of an empty run: %d, want %d", len(got), len(endToEnd))
	}
	if got := layerMetrics(nil); len(got) != len(perLayer) {
		t.Errorf("per-layer metrics of an empty run: %d, want %d", len(got), len(perLayer))
	}
}

func TestParseMetrics(t *testing.T) {
	m := parseMetrics([]byte("# HELP x y\n# TYPE x counter\ncrispd_executions_total 7\ncrispd_sweep_tasks_total{state=\"done\"} 14\nbad\n"))
	if m["crispd_executions_total"] != 7 || m[`crispd_sweep_tasks_total{state="done"}`] != 14 || len(m) != 2 {
		t.Errorf("parseMetrics = %v", m)
	}
}
