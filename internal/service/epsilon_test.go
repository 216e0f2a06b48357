package service

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// TestEvaluateEpsilonPrecisionTargeted drives /v2/evaluate with a precision
// target: the response reports the realized (early-stopped) trial count, the
// raw success count, and echoes the epsilon; an identical repeat is served
// from the cache with identical numbers.
func TestEvaluateEpsilonPrecisionTargeted(t *testing.T) {
	mux, e := testMux()
	body := `{"design":"DTMB(2,6)","n_primary":100,"p":0.999,"runs":100000,"seed":7,"epsilon":0.005}`
	w := doJSON(t, mux, http.MethodPost, "/v2/evaluate", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var rec ScenarioRecord
	if err := json.Unmarshal(w.Body.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Runs <= 0 || rec.Runs >= 100000 {
		t.Errorf("realized runs %d, want an early stop strictly inside (0, 100000)", rec.Runs)
	}
	if rec.Successes <= 0 || rec.Successes > rec.Runs {
		t.Errorf("successes %d inconsistent with %d runs", rec.Successes, rec.Runs)
	}
	if rec.Epsilon != 0.005 {
		t.Errorf("epsilon echo %v, want 0.005", rec.Epsilon)
	}
	if rec.Cached {
		t.Error("first evaluation reported cached")
	}
	if got := e.Stats().KernelEarlyStops; got != 1 {
		t.Errorf("kernel_early_stops %d, want 1", got)
	}

	w2 := doJSON(t, mux, http.MethodPost, "/v2/evaluate", body)
	var rec2 ScenarioRecord
	if err := json.Unmarshal(w2.Body.Bytes(), &rec2); err != nil {
		t.Fatal(err)
	}
	if !rec2.Cached {
		t.Error("identical adaptive request missed the cache")
	}
	rec2.Cached = false
	if rec2 != rec {
		t.Errorf("cached record %+v differs from fresh %+v", rec2, rec)
	}
}

// TestEvaluateEpsilonSeparatesCacheKeys checks adaptive and fixed-run
// evaluations of the same scenario never share a cache entry.
func TestEvaluateEpsilonSeparatesCacheKeys(t *testing.T) {
	e := NewEngine(EngineConfig{CacheSize: 16, DefaultRuns: 300})
	ctx := context.Background()
	base := ScenarioRequest{Design: "DTMB(2,6)", NPrimary: 60, P: 0.99, Runs: 20000, Seed: 3}
	fixed, err := e.EvaluateScenario(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	adaptive := base
	adaptive.Epsilon = 0.01
	got, err := e.EvaluateScenario(ctx, adaptive)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cached {
		t.Fatal("adaptive request was served the fixed-run cache entry")
	}
	if fixed.Runs != 20000 {
		t.Errorf("fixed-run request realized %d runs, want the full 20000", fixed.Runs)
	}
	if got.Runs >= fixed.Runs {
		t.Errorf("adaptive realized %d runs, want fewer than the fixed %d", got.Runs, fixed.Runs)
	}
}

// TestEpsilonValidation rejects malformed precision targets on both the
// evaluate and sweep surfaces.
func TestEpsilonValidation(t *testing.T) {
	mux, _ := testMux()
	for name, probe := range map[string]struct{ path, body string }{
		"evaluate negative": {"/v2/evaluate", `{"design":"DTMB(2,6)","n_primary":40,"p":0.9,"epsilon":-0.01}`},
		"evaluate too big":  {"/v2/evaluate", `{"design":"DTMB(2,6)","n_primary":40,"p":0.9,"epsilon":1}`},
		"sweep negative":    {"/v1/sweep", `{"epsilon":-0.5}`},
		"sweep too big":     {"/v1/sweep", `{"epsilon":2}`},
	} {
		w := doJSON(t, mux, http.MethodPost, probe.path, probe.body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, w.Code, w.Body.String())
		}
		if !strings.Contains(w.Body.String(), "epsilon") {
			t.Errorf("%s: error does not name epsilon: %s", name, w.Body.String())
		}
	}
}

// TestV1SweepSuppressesAdaptiveFields pins the v1 stream contract: even when
// a sweep runs precision-targeted, its NDJSON records never carry the
// post-v1 successes/epsilon fields, and runs reports the realized count.
func TestV1SweepSuppressesAdaptiveFields(t *testing.T) {
	mux, _ := testMux()
	body := `{"designs":["DTMB(2,6)"],"n_primaries":[60],"ps":[0.999],"runs":50000,"seed":5,"epsilon":0.01}`
	w := doJSON(t, mux, http.MethodPost, "/v1/sweep", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	sc := bufio.NewScanner(strings.NewReader(w.Body.String()))
	lines := 0
	for sc.Scan() {
		line := sc.Text()
		lines++
		if strings.Contains(line, `"successes"`) || strings.Contains(line, `"epsilon"`) {
			t.Errorf("v1 sweep record leaks adaptive fields: %s", line)
		}
		var rec SweepRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Runs <= 0 || rec.Runs >= 50000 {
			t.Errorf("realized runs %d, want an early stop strictly inside (0, 50000)", rec.Runs)
		}
	}
	if lines != 1 {
		t.Fatalf("sweep emitted %d lines, want 1", lines)
	}
}

// TestJobStreamCarriesAdaptiveFields checks the v2 job surface does expose
// the success count and epsilon for precision-targeted sweeps.
func TestJobStreamCarriesAdaptiveFields(t *testing.T) {
	e := NewEngine(EngineConfig{CacheSize: 16, DefaultRuns: 300})
	plan, err := e.PlanSweep(SweepRequest{
		Designs: []string{"DTMB(2,6)"}, NPrimaries: []int{60}, Ps: []float64{0.999},
		Runs: 50000, Seed: 6, Epsilon: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	var recs []SweepRecord
	if err := e.RunSweep(context.Background(), plan, func(run []SweepRecord) error {
		recs = append(recs, run...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("%d records, want 1", len(recs))
	}
	r := recs[0]
	if r.Successes <= 0 {
		t.Errorf("successes %d, want carried through", r.Successes)
	}
	if r.Epsilon != 0.01 {
		t.Errorf("epsilon %v, want 0.01", r.Epsilon)
	}
	if r.Runs >= 50000 {
		t.Errorf("realized runs %d, want early stop", r.Runs)
	}
}
