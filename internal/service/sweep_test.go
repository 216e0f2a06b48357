package service

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// sweepBody is a ≥30-point grid mixing all three strategies.
const sweepBody = `{"strategies":["none","local","shifted"],` +
	`"designs":["DTMB(2,6)","dtmb44"],"n_primaries":[24],` +
	`"p_min":0.90,"p_max":1.0,"p_points":8,"spare_rows":[1],` +
	`"runs":200,"seed":7}`

func TestSweepHandlerStreamsOrderedNDJSON(t *testing.T) {
	mux, _ := testMux()
	w := doJSON(t, mux, http.MethodPost, "/v1/sweep", sweepBody)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type %q", ct)
	}
	if !w.Flushed {
		t.Error("response was never flushed mid-stream")
	}
	var recs []SweepRecord
	sc := bufio.NewScanner(strings.NewReader(w.Body.String()))
	for sc.Scan() {
		var rec SweepRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		recs = append(recs, rec)
	}
	// none: 8, local: 2*8, shifted: 8.
	if want := 8 + 16 + 8; len(recs) != want {
		t.Fatalf("%d records, want %d", len(recs), want)
	}
	for i, rec := range recs {
		if rec.Index != i {
			t.Fatalf("record %d has index %d (stream must be in point order)", i, rec.Index)
		}
		if rec.Yield < 0 || rec.Yield > 1 {
			t.Errorf("record %d yield %v", i, rec.Yield)
		}
	}
	// The compact alias was canonicalized.
	found := false
	for _, rec := range recs {
		if rec.Design == "DTMB(4,4)" {
			found = true
		}
	}
	if !found {
		t.Error("alias dtmb44 not resolved to DTMB(4,4)")
	}
}

func TestSweepByteIdenticalAcrossWorkerCounts(t *testing.T) {
	run := func(workers, maxConcurrent int) string {
		e := NewEngine(EngineConfig{Workers: workers, MaxConcurrent: maxConcurrent})
		mux := NewMux(e, nil)
		w := doJSON(t, mux, http.MethodPost, "/v1/sweep", sweepBody)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
		return w.Body.String()
	}
	a := run(1, 1)
	b := run(4, 4)
	if a != b {
		t.Fatalf("sweep bytes differ across worker counts:\n--- 1 worker:\n%s\n--- 4 workers:\n%s", a, b)
	}
}

func TestSweepValidationRejectedBeforeStreaming(t *testing.T) {
	mux, _ := testMux()
	cases := []struct {
		name string
		body string
		want string
	}{
		{"unknown strategy", `{"strategies":["teleport"]}`, "unknown strategy"},
		{"unknown design", `{"designs":["DTMB(9,9)"]}`, "unknown design"},
		{"bad n", `{"n_primaries":[0]}`, "n_primaries"},
		{"bad spare rows", `{"strategies":["shifted"],"spare_rows":[-1]}`, "spare_rows"},
		{"bad p", `{"ps":[1.5]}`, "outside [0,1]"},
		{"oversized grid", `{"n_primaries":[1,2,3,4,5,6,7,8,9,10],"p_points":1000,"p_min":0.5,"p_max":0.6,"runs":100}`, "grid points"},
		{"negative runs", `{"runs":-1}`, "runs"},
	}
	for _, tc := range cases {
		w := doJSON(t, mux, http.MethodPost, "/v1/sweep", tc.body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, w.Code, w.Body.String())
			continue
		}
		if ct := w.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: rejected with Content-Type %q, want plain JSON error", tc.name, ct)
		}
		if !strings.Contains(w.Body.String(), tc.want) {
			t.Errorf("%s: body %q missing %q", tc.name, w.Body.String(), tc.want)
		}
	}
}

func TestSweepWorkCapRejectsHugeGrids(t *testing.T) {
	mux, _ := testMux()
	// Each point is within per-request bounds, but the grid total exceeds
	// the sweep work cap.
	body := `{"designs":["DTMB(2,6)"],"n_primaries":[100000],"p_min":0.5,"p_max":0.9,"p_points":30,"runs":1000000}`
	w := doJSON(t, mux, http.MethodPost, "/v1/sweep", body)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), "work") {
		t.Errorf("body %q should mention the work cap", w.Body.String())
	}
}

func TestSweepLocalPointsShareYieldCache(t *testing.T) {
	e := NewEngine(EngineConfig{CacheSize: 64})
	// Prime the cache through the single-point endpoint.
	if _, err := e.Yield(context.Background(), YieldRequest{Design: "DTMB(2,6)", NPrimary: 24, P: 0.95, Runs: 200, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	plan, err := e.PlanSweep(SweepRequest{
		Designs:    []string{"dtmb26"},
		NPrimaries: []int{24},
		Ps:         []float64{0.95},
		Runs:       200,
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	var recs []SweepRecord
	err = e.RunSweep(context.Background(), plan, func(run []SweepRecord) error {
		recs = append(recs, run...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("%d records", len(recs))
	}
	if !recs[0].Cached {
		t.Error("sweep point with identical (design,n,p,runs,seed) must hit the /v1/yield cache")
	}
}

func TestSweepShiftedPointsAreCached(t *testing.T) {
	e := NewEngine(EngineConfig{CacheSize: 64})
	req := SweepRequest{
		Strategies: []string{"shifted"},
		NPrimaries: []int{24},
		Ps:         []float64{0.95},
		SpareRows:  []int{2},
		Runs:       200,
		Seed:       7,
	}
	plan, err := e.PlanSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	run := func() SweepRecord {
		var recs []SweepRecord
		if err := e.RunSweep(context.Background(), plan, func(run []SweepRecord) error {
			recs = append(recs, run...)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 {
			t.Fatalf("%d records", len(recs))
		}
		return recs[0]
	}
	first := run()
	if first.Cached {
		t.Error("first shifted evaluation reported cached")
	}
	second := run()
	if !second.Cached {
		t.Error("repeat shifted evaluation missed the cache")
	}
	first.Cached, second.Cached = false, false
	if first != second {
		t.Errorf("cached shifted record differs: %+v vs %+v", first, second)
	}
}

func TestSweepCancelledContext(t *testing.T) {
	e := NewEngine(EngineConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	plan, err := e.PlanSweep(SweepRequest{NPrimaries: []int{24}, Ps: []float64{0.95}, Runs: 200})
	if err != nil {
		t.Fatal(err)
	}
	err = e.RunSweep(ctx, plan, func([]SweepRecord) error { return nil })
	if err == nil {
		t.Fatal("cancelled sweep returned nil")
	}
	if !isContextErr(err) {
		t.Fatalf("err = %v, want a context error", err)
	}
}

func TestSweepDefaultsReproduceFig9Setting(t *testing.T) {
	e := NewEngine(EngineConfig{DefaultRuns: 100})
	plan, err := e.PlanSweep(SweepRequest{})
	if err != nil {
		t.Fatal(err)
	}
	// Four canonical designs × 11 ps at n=100.
	if want := 44; plan.NumPoints() != want {
		t.Errorf("default sweep has %d points, want %d", plan.NumPoints(), want)
	}
}

// firstFlushRecorder keeps the body as it stood at the first Flush and
// then cancels the request.
type firstFlushRecorder struct {
	*httptest.ResponseRecorder
	cancel  context.CancelFunc
	flushed string
}

func (f *firstFlushRecorder) Flush() {
	if f.flushed == "" {
		f.flushed = f.Body.String()
		f.cancel()
	}
	f.ResponseRecorder.Flush()
}

// TestSweepFlushesAfterEveryRecord streams a closed-form point followed by
// a point a million trials long: the first record must reach the client
// while the second is still simulating. The first flush cancels the
// request, so the slow point never finishes.
func TestSweepFlushesAfterEveryRecord(t *testing.T) {
	mux, _ := testMux()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequestWithContext(ctx, http.MethodPost, "/v1/sweep",
		strings.NewReader(`{"strategies":["none","local"],"designs":["DTMB(2,6)"],"n_primaries":[100],"ps":[0.9],"runs":1000000,"seed":1}`))
	w := &firstFlushRecorder{ResponseRecorder: httptest.NewRecorder(), cancel: cancel}
	mux.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var rec SweepRecord
	if strings.Count(w.flushed, "\n") != 1 || json.Unmarshal([]byte(w.flushed), &rec) != nil || rec.Index != 0 || rec.Strategy != "none" {
		t.Fatalf("first flush carried %q, want the closed-form record alone", w.flushed)
	}
	if w.Body.String() != w.flushed {
		t.Fatalf("stream went on past the cancelling flush: %q", w.Body.String())
	}
}

func TestSweepHugePPointsRejectedWithoutAllocation(t *testing.T) {
	mux, _ := testMux()
	// A ~50-byte body must not be able to trigger a p_points-sized
	// allocation; the bound is checked before the grid is materialized.
	w := doJSON(t, mux, http.MethodPost, "/v1/sweep", `{"p_points":1000000000,"p_min":0.5,"p_max":0.9}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), "p_points") {
		t.Errorf("body %q should name p_points", w.Body.String())
	}
	w = doJSON(t, mux, http.MethodPost, "/v1/sweep", `{"p_points":-1}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("negative p_points: status %d", w.Code)
	}
}

func TestSweepRejectsDuplicateAxisEntries(t *testing.T) {
	mux, _ := testMux()
	cases := []struct {
		name string
		body string
	}{
		{"aliased design twice", `{"designs":["DTMB(2,6)","dtmb26"]}`},
		{"strategy twice", `{"strategies":["local","local"]}`},
		{"n twice", `{"n_primaries":[60,60]}`},
		{"spare rows twice", `{"strategies":["shifted"],"spare_rows":[1,1]}`},
		{"p twice", `{"ps":[0.95,0.95]}`},
	}
	for _, tc := range cases {
		w := doJSON(t, mux, http.MethodPost, "/v1/sweep", tc.body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, w.Code, w.Body.String())
			continue
		}
		if !strings.Contains(w.Body.String(), "twice") {
			t.Errorf("%s: body %q should mention the duplicate", tc.name, w.Body.String())
		}
	}
}
