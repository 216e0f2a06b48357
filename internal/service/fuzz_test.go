package service

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzSweepRequestDecode feeds adversarial bodies through the exact decode
// path of POST /v1/sweep (strict JSON decoding, then PlanSweep). The
// invariants: no panic on any input, and every accepted request plans a
// finite grid within the advertised caps. The seed corpus runs in plain
// `go test`; `go test -fuzz=FuzzSweepRequestDecode ./internal/service`
// explores further.
func FuzzSweepRequestDecode(f *testing.F) {
	f.Add(`{}`)
	f.Add(`{"strategies":["none","local","shifted","hex"],"runs":100}`)
	f.Add(`{"designs":["dtmb26"],"n_primaries":[24],"ps":[0.95]}`)
	f.Add(`{"defect_models":["clustered"],"cluster_size":4}`)
	f.Add(`{"defect_models":["clustered","clustered"]}`)
	f.Add(`{"cluster_size":1e308}`)
	f.Add(`{"cluster_size":-1}`)
	f.Add(`{"p_points":2147483647}`)
	f.Add(`{"n_primaries":[0]}`)
	f.Add(`{"strategies":["hex"],"designs":["DTMB(9,9)"]}`)
	f.Add(`{"ps":[NaN]}`)
	f.Add(`{"runs":1000000000000}`)
	f.Add(`{"unknown_field":1}`)
	f.Add(`not json at all`)
	f.Add(`{"strategies":`)
	f.Add(`[]`)
	f.Add(``)
	e := NewEngine(EngineConfig{DefaultRuns: 100})
	f.Fuzz(func(t *testing.T, body string) {
		r := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(body))
		w := httptest.NewRecorder()
		req, ok := DecodeRequest[SweepRequest](w, r, maxBodyBytes)
		if !ok {
			if w.Code == http.StatusOK {
				t.Fatalf("decode failed but wrote status 200 for body %q", body)
			}
			return
		}
		plan, err := e.PlanSweep(req)
		if err != nil {
			return // rejected requests just must not panic
		}
		if n := plan.NumPoints(); n < 0 || n > MaxSweepPoints {
			t.Fatalf("accepted plan with %d points (cap %d) for body %q", n, MaxSweepPoints, body)
		}
	})
}
