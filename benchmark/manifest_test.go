package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// BENCHMARK.json is the contract the driver reads; the tables in metrics.go
// are what the harness emits. Every workload and metric named in one must
// exist in the other, with the same unit, direction and bound. The workloads
// BENCHMARK.json lists are the harness's listed ones, in order.
func TestManifestAgreesWithHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if want := []string{"bash", "benchmark/run.sh"}; !reflect.DeepEqual(doc.Command, want) {
		t.Errorf("command = %v, want %v", doc.Command, want)
	}
	if want := []string{"benchmark"}; !reflect.DeepEqual(doc.Paths, want) {
		t.Errorf("paths = %v, want %v", doc.Paths, want)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the harness defaults to %d", doc.RunSeconds, defaultSeconds)
	}

	var listed []workloadDef
	for _, w := range workloadDefs {
		if w.listed {
			listed = append(listed, w)
		}
	}
	if len(doc.Workloads) != len(listed) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d listed in the harness", len(doc.Workloads), len(listed))
	}
	for i, w := range listed {
		if got := doc.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d = %+v, harness has %q: %q", i, got, w.name, w.why)
		}
	}

	check := func(kind string, got []metric, defs []metricDef, bounded bool) {
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(defs))
			return
		}
		seen := map[string]bool{}
		for i, d := range defs {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s metric %d = %+v, harness has %+v", kind, i, g, d)
			}
			if seen[d.name] {
				t.Errorf("%s metric %q is named twice", kind, d.name)
			}
			seen[d.name] = true
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s metric %q: bound %v, harness has %v (must be in (0, 0.25])", kind, d.name, g.Bound, d.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s metric %q has a bound; per-layer metrics have none", kind, d.name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEndDefs, true)
	check("per_layer", doc.PerLayer, perLayerDefs, false)
}
