package main

import (
	"encoding/json"
	"os"
	"testing"
)

// smokeSizes runs every workload's code at tiny sizes.
var smokeSizes = sizes{
	tableCircuits: []string{"b01", "b02"},
	xlCircuit:     "s298",
	xlTests:       3,
	xlVectors:     4,
	auditFaults:   4,
	svcCircuits:   []string{"b01", "b02"},
	svcPrefill:    8,
	svcClients:    2,
	svcBlock:      5,
	svcColdEvery:  5,
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs each workload untraced and traced at tiny sizes and
// checks that the output checks pass and that every metric BENCHMARK.json
// declares is emitted with its unit.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []declared              `json:"end_to_end"`
		PerLayer  []declared              `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Errorf("BENCHMARK.json declares %d per-layer metrics, the benchmark reports %d", len(spec.PerLayer), len(layerMetrics))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	for _, wl := range []string{"table-mid", "xl-grade", "service-mix"} {
		for _, seed := range []int64{0, 5} {
			for _, traced := range []bool{false, true} {
				b := newBench("..", t.TempDir(), wl, seed, 1.5, traced, smokeSizes)
				res, err := b.run()
				if err != nil {
					t.Fatalf("%s seed %d traced=%v: %v", wl, seed, traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("%s seed %d traced=%v: correct=%v, %d of %d failed", wl, seed, traced, res.Correct, res.Failed, res.Attempted)
				}
				want := spec.EndToEnd
				if traced {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%s traced=%v: %d metrics emitted, %d declared", wl, traced, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("%s traced=%v: metric %s not emitted", wl, traced, m.Name)
					case got.Unit != m.Unit:
						t.Errorf("%s traced=%v: metric %s unit %q, declared %q", wl, traced, m.Name, got.Unit, m.Unit)
					case !traced && got.Value <= 0:
						t.Errorf("%s: end-to-end metric %s = %v", wl, m.Name, got.Value)
					}
				}
			}
		}
	}
}
