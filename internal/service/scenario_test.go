package service

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

func TestEvaluateScenarioHandlers(t *testing.T) {
	mux, _ := testMux()
	cases := []struct {
		name       string
		body       string
		wantStatus int
		wantSubstr string
	}{
		{
			name:       "local default strategy",
			body:       `{"design":"DTMB(2,6)","n_primary":60,"p":0.95,"runs":300,"seed":1}`,
			wantStatus: http.StatusOK,
			wantSubstr: `"strategy":"local"`,
		},
		{
			name:       "hex with alias",
			body:       `{"strategy":"hex","design":"dtmb44","n_primary":40,"p":0.9,"runs":200,"seed":2}`,
			wantStatus: http.StatusOK,
			wantSubstr: `"DTMB(4,4)"`,
		},
		{
			name:       "shifted default spare rows",
			body:       `{"strategy":"shifted","n_primary":36,"p":0.95,"runs":200,"seed":3}`,
			wantStatus: http.StatusOK,
			wantSubstr: `"spare_rows":1`,
		},
		{
			name:       "none closed form",
			body:       `{"strategy":"none","n_primary":50,"p":0.99}`,
			wantStatus: http.StatusOK,
			wantSubstr: `"runs":0`,
		},
		{
			name:       "clustered model",
			body:       `{"strategy":"local","design":"DTMB(2,6)","n_primary":40,"p":0.94,"defect_model":"clustered","cluster_size":4,"runs":200,"seed":4}`,
			wantStatus: http.StatusOK,
			wantSubstr: `"defect_model":"clustered"`,
		},
		{
			name:       "unknown strategy",
			body:       `{"strategy":"bogus","n_primary":40,"p":0.9}`,
			wantStatus: http.StatusBadRequest,
			wantSubstr: "unknown strategy",
		},
		{
			name:       "missing design",
			body:       `{"strategy":"local","n_primary":40,"p":0.9}`,
			wantStatus: http.StatusBadRequest,
			wantSubstr: "requires a design",
		},
		{
			name:       "design on shifted",
			body:       `{"strategy":"shifted","design":"DTMB(2,6)","n_primary":40,"p":0.9}`,
			wantStatus: http.StatusBadRequest,
			wantSubstr: "design applies only",
		},
		{
			name:       "spare rows on local",
			body:       `{"strategy":"local","design":"DTMB(2,6)","spare_rows":2,"n_primary":40,"p":0.9}`,
			wantStatus: http.StatusBadRequest,
			wantSubstr: "spare_rows applies only",
		},
		{
			name:       "cluster size on independent",
			body:       `{"strategy":"local","design":"DTMB(2,6)","cluster_size":4,"n_primary":40,"p":0.9}`,
			wantStatus: http.StatusBadRequest,
			wantSubstr: "cluster_size applies only",
		},
		{
			name:       "unknown defect model",
			body:       `{"strategy":"local","design":"DTMB(2,6)","defect_model":"weird","n_primary":40,"p":0.9}`,
			wantStatus: http.StatusBadRequest,
			wantSubstr: "unknown defect model",
		},
		{
			name:       "p out of range",
			body:       `{"design":"DTMB(2,6)","n_primary":40,"p":1.5}`,
			wantStatus: http.StatusBadRequest,
			wantSubstr: "outside [0,1]",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := doJSON(t, mux, http.MethodPost, "/v2/evaluate", tc.body)
			if w.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d; body %s", w.Code, tc.wantStatus, w.Body.String())
			}
			if tc.wantSubstr != "" && !strings.Contains(w.Body.String(), tc.wantSubstr) {
				t.Errorf("body %q missing %q", w.Body.String(), tc.wantSubstr)
			}
		})
	}
}

// TestV2EvaluateSharesV1YieldCache pins the adapter property: a /v1/yield
// request and the equivalent /v2/evaluate scenario are the same computation
// in the same cache namespace, in both directions.
func TestV2EvaluateSharesV1YieldCache(t *testing.T) {
	mux, _ := testMux()
	w := doJSON(t, mux, http.MethodPost, "/v1/yield",
		`{"design":"DTMB(2,6)","n_primary":60,"p":0.95,"runs":300,"seed":9}`)
	var v1 YieldResponse
	if err := json.Unmarshal(w.Body.Bytes(), &v1); err != nil {
		t.Fatal(err)
	}
	if v1.Cached {
		t.Fatal("first v1 request served from cache")
	}
	w = doJSON(t, mux, http.MethodPost, "/v2/evaluate",
		`{"design":"DTMB(2,6)","n_primary":60,"p":0.95,"runs":300,"seed":9}`)
	var v2 ScenarioRecord
	if err := json.Unmarshal(w.Body.Bytes(), &v2); err != nil {
		t.Fatal(err)
	}
	if !v2.Cached {
		t.Error("equivalent v2 scenario missed the v1 cache entry")
	}
	if v2.Yield != v1.Yield || v2.CILo != v1.CILo || v2.CIHi != v1.CIHi ||
		v2.EffectiveYield != v1.EffectiveYield || v2.NTotal != v1.NTotal {
		t.Errorf("v2 %+v != v1 %+v", v2, v1)
	}

	// And the reverse: an evaluate-first scenario primes /v1/yield.
	doJSON(t, mux, http.MethodPost, "/v2/evaluate",
		`{"design":"DTMB(3,6)","n_primary":60,"p":0.95,"runs":300,"seed":9}`)
	w = doJSON(t, mux, http.MethodPost, "/v1/yield",
		`{"design":"DTMB(3,6)","n_primary":60,"p":0.95,"runs":300,"seed":9}`)
	var rev YieldResponse
	if err := json.Unmarshal(w.Body.Bytes(), &rev); err != nil {
		t.Fatal(err)
	}
	if !rev.Cached {
		t.Error("v1 request missed the cache entry primed by v2/evaluate")
	}
}

// TestEvaluateScenarioMatchesSweepEngine pins /v2/evaluate to the sweep
// engine: one scenario evaluated alone equals the same grid point of a
// sweep.
func TestEvaluateScenarioMatchesSweepEngine(t *testing.T) {
	e := NewEngine(EngineConfig{CacheSize: 16, DefaultRuns: 200})
	rec, err := e.EvaluateScenario(context.Background(), ScenarioRequest{
		Strategy: "hex", Design: "DTMB(2,6)", NPrimary: 40, P: 0.95, Runs: 200, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewEngine(EngineConfig{CacheSize: 16, DefaultRuns: 200})
	plan, err := fresh.PlanSweep(SweepRequest{
		Strategies: []string{"hex"}, Designs: []string{"DTMB(2,6)"},
		NPrimaries: []int{40}, Ps: []float64{0.95}, Runs: 200, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []SweepRecord
	err = fresh.RunSweep(context.Background(), plan, func(run []SweepRecord) error { got = append(got, run...); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("sweep returned %d records", len(got))
	}
	if got[0].ScenarioRecord != rec {
		t.Errorf("sweep point %+v != evaluate %+v", got[0].ScenarioRecord, rec)
	}
}
