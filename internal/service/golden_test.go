package service

import (
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Golden wire-format tests for the v1 surface. The goldens were generated
// against the pre-/v2 handlers (run with -update to regenerate); they lock
// every byte of the v1 responses — field order, float formatting, error
// envelopes, NDJSON framing — so the scenario-core refactor that turned the
// v1 handlers into adapters is provably invisible on the wire.
var updateGolden = flag.Bool("update", false, "rewrite golden wire-format files")

// goldenEngine builds an engine with the fixed configuration the goldens
// were generated under. Determinism contract: DefaultRuns and the request
// seeds pin the bytes; Workers does not affect them.
func goldenEngine() *Engine {
	return NewEngine(EngineConfig{CacheSize: 64, DefaultRuns: 300})
}

// checkGolden compares got with the named golden file, rewriting it under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if string(want) != string(got) {
		t.Errorf("%s: response bytes changed\n got: %q\nwant: %q", name, got, want)
	}
}

// TestV1GoldenWireFormat replays one request per v1 endpoint — happy paths,
// cache-hit responses, and representative validation errors — and asserts
// the exact response bytes.
func TestV1GoldenWireFormat(t *testing.T) {
	mux := NewMux(goldenEngine(), nil)
	cases := []struct {
		golden     string
		method     string
		path       string
		body       string
		wantStatus int
	}{
		{
			golden: "yield.json",
			method: http.MethodPost, path: "/v1/yield",
			body:       `{"design":"DTMB(2,6)","n_primary":60,"p":0.95,"runs":300,"seed":1}`,
			wantStatus: http.StatusOK,
		},
		{
			// Identical repeat: the cached flag must appear, nothing else move.
			golden: "yield_cached.json",
			method: http.MethodPost, path: "/v1/yield",
			body:       `{"design":"DTMB(2,6)","n_primary":60,"p":0.95,"runs":300,"seed":1}`,
			wantStatus: http.StatusOK,
		},
		{
			golden: "yield_alias.json",
			method: http.MethodPost, path: "/v1/yield",
			body:       `{"design":"dtmb44","n_primary":40,"p":0.9,"runs":200,"seed":2}`,
			wantStatus: http.StatusOK,
		},
		{
			golden: "yield_err_design.json",
			method: http.MethodPost, path: "/v1/yield",
			body:       `{"design":"DTMB(9,9)","n_primary":60,"p":0.95}`,
			wantStatus: http.StatusBadRequest,
		},
		{
			golden: "yield_err_p.json",
			method: http.MethodPost, path: "/v1/yield",
			body:       `{"design":"DTMB(2,6)","n_primary":60,"p":1.5}`,
			wantStatus: http.StatusBadRequest,
		},
		{
			golden: "recommend.json",
			method: http.MethodPost, path: "/v1/recommend",
			body:       `{"p":0.95,"n_primary":40,"runs":200,"seed":5}`,
			wantStatus: http.StatusOK,
		},
		{
			golden: "reconfigure.json",
			method: http.MethodPost, path: "/v1/reconfigure",
			body:       `{"design":"DTMB(2,6)","n_primary":60,"faulty_cells":[0,7]}`,
			wantStatus: http.StatusOK,
		},
		{
			golden: "sweep.ndjson",
			method: http.MethodPost, path: "/v1/sweep",
			body: `{"strategies":["none","local","shifted","hex"],"designs":["DTMB(2,6)"],` +
				`"n_primaries":[40],"ps":[0.9,0.95],"spare_rows":[1],` +
				`"defect_models":["independent","clustered"],"cluster_size":4,"runs":200,"seed":3}`,
			wantStatus: http.StatusOK,
		},
		{
			golden: "sweep_err_strategy.json",
			method: http.MethodPost, path: "/v1/sweep",
			body:       `{"strategies":["bogus"]}`,
			wantStatus: http.StatusBadRequest,
		},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
			w := httptest.NewRecorder()
			mux.ServeHTTP(w, req)
			if w.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d; body %s", w.Code, tc.wantStatus, w.Body.String())
			}
			checkGolden(t, tc.golden, w.Body.Bytes())
		})
	}
}
