package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesCode keeps the metric names and units the
// repository's BENCHMARK.json declares equal to what the benchmark prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	if len(doc.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark %d", len(doc.PerLayer), len(layerMetrics))
	}
	for i, m := range doc.PerLayer {
		if m.Name != layerMetrics[i].Name || m.Unit != layerMetrics[i].Unit {
			t.Errorf("per_layer[%d] = %s %s, benchmark prints %s %s", i, m.Name, m.Unit, layerMetrics[i].Name, layerMetrics[i].Unit)
		}
	}
	res := &Result{}
	opMetrics(res, []float64{1}, []float64{1})
	got := map[string]string{"peak_heap_mb": "MB"} // added by run
	for _, m := range res.EndToEnd {
		got[m.Name] = m.Unit
	}
	if len(got) != len(doc.EndToEnd) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the benchmark prints %d", len(doc.EndToEnd), len(got))
	}
	for _, m := range doc.EndToEnd {
		if got[m.Name] != m.Unit {
			t.Errorf("end-to-end %s: unit %q, benchmark prints %q", m.Name, m.Unit, got[m.Name])
		}
	}
}
