package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
)

// spec is the part of BENCHMARK.json the test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestEveryWorkloadPrintsEveryMetric runs each workload briefly, untraced
// and traced, on shrunken inputs, and checks that the printed result names
// every metric of BENCHMARK.json with its unit, that every output check
// passed, and that ops_failed_ratio is 0.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	for _, wl := range sp.Workloads {
		for _, trace := range []bool{false, true} {
			want := sp.EndToEnd
			if trace {
				want = sp.PerLayer
			}
			out, err := run(context.Background(), options{
				workload: wl.Name, seed: 1, seconds: 1, trace: trace, small: true, workdir: t.TempDir(),
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			line, err := json.Marshal(out.Result)
			if err != nil {
				t.Fatal(err)
			}
			var printed result
			if err := json.Unmarshal(line, &printed); err != nil {
				t.Fatal(err)
			}
			if !printed.Correct || printed.Failed != 0 || printed.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v",
					wl.Name, trace, printed.Correct, printed.Attempted, printed.Failed, out.failures)
			}
			if len(printed.Metrics) != len(want) {
				t.Errorf("%s trace=%v printed %d metrics, BENCHMARK.json names %d", wl.Name, trace, len(printed.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := printed.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v (present %v), want unit %q", wl.Name, trace, m.Name, got, ok, m.Unit)
				}
			}
			if trace {
				if r := printed.Metrics["ops_failed_ratio"].Value; r != 0 {
					t.Errorf("%s: ops_failed_ratio %v, want 0", wl.Name, r)
				}
				if n := printed.Metrics["trace.replayed_scenarios"].Value; n == 0 {
					t.Errorf("%s: no scenario was replayed", wl.Name)
				}
			}
		}
	}
}
