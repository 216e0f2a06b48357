package sweep

import (
	"context"
	"errors"
	"strings"
	"testing"

	"dmfb/internal/core"
	"dmfb/internal/telemetry"
)

// TestInstrumentedEvaluator checks the wrapper: successes are timed under
// the right strategy × model labels, failures are not recorded, results
// pass through untouched, and a nil bundle is the identity.
func TestInstrumentedEvaluator(t *testing.T) {
	r := telemetry.NewRegistry()
	sm := telemetry.NewSweepMetrics(r)
	eval := Instrumented(evaluator(core.SimParams{Runs: 200, Seed: 1}), sm)

	pt := Point{Scenario: Scenario{Strategy: None, NPrimary: 50, P: 0.95, DefectModel: Independent}}
	res, err := eval(context.Background(), pt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Yield <= 0 {
		t.Fatalf("degenerate result %+v", res)
	}

	if _, err := eval(context.Background(), Point{Scenario: Scenario{Strategy: "bogus"}}); err == nil {
		t.Fatal("bogus strategy evaluated without error")
	}

	exp := exposition(t, r)
	count := `dmfb_sweep_point_duration_seconds_count{defect_model="independent",strategy="none"}`
	found := false
	for _, s := range exp.Samples {
		if s.Name+"{"+s.Labels+"}" == count {
			found = true
			if s.Value != 1 {
				t.Errorf("point count = %v, want 1 (failure must not be recorded)", s.Value)
			}
		}
	}
	if !found {
		t.Errorf("no %s sample in exposition", count)
	}

	plain := evaluator(core.SimParams{Runs: 200})
	if got := Instrumented(plain, nil); got == nil {
		t.Error("nil-bundle Instrumented returned nil")
	}

	failing := func(ctx context.Context, pt Point) (PointResult, error) {
		return PointResult{}, errors.New("boom")
	}
	if _, err := Instrumented(failing, sm)(context.Background(), pt); err == nil {
		t.Error("wrapper swallowed the evaluation error")
	}
}

// exposition renders and re-parses r's Prometheus payload.
func exposition(t *testing.T, r *telemetry.Registry) *telemetry.Exposition {
	t.Helper()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	exp, err := telemetry.ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, sb.String())
	}
	return exp
}
