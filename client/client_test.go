package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dmfb/client"
	"dmfb/internal/service"
)

// newTestServer runs the full production handler stack (middleware
// included) over httptest, so client tests exercise exactly what
// dtmb-serve serves.
func newTestServer(t *testing.T, cfg service.EngineConfig) (*httptest.Server, *service.Store) {
	t.Helper()
	engine := service.NewEngine(cfg)
	jobs := service.NewJobStore(engine, service.JobStoreConfig{})
	logger := slog.New(slog.NewJSONHandler(testWriter{t}, nil))
	srv := httptest.NewServer(service.NewHandler(engine, jobs, logger))
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := jobs.Close(ctx); err != nil {
			t.Errorf("job store close: %v", err)
		}
	})
	return srv, jobs
}

// testWriter routes the server's access log into the test log.
type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", bytes.TrimSpace(p))
	return len(p), nil
}

var jobGrid = client.SweepRequest{
	Strategies:   []string{"none", "local", "shifted", "hex"},
	Designs:      []string{"DTMB(2,6)"},
	NPrimaries:   []int{40},
	Ps:           []float64{0.9, 0.95},
	SpareRows:    []int{1},
	DefectModels: []string{"independent", "clustered"},
	ClusterSize:  4,
	Runs:         150,
	Seed:         11,
}

func TestClientV1RoundTrips(t *testing.T) {
	srv, _ := newTestServer(t, service.EngineConfig{DefaultRuns: 200, CacheSize: 32})
	c := client.New(srv.URL)
	ctx := context.Background()

	y, err := c.Yield(ctx, client.YieldRequest{Design: "dtmb26", NPrimary: 60, P: 0.95, Runs: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if y.Design != "DTMB(2,6)" || y.Yield <= 0 || y.Yield > 1 {
		t.Errorf("yield %+v", y)
	}

	rec, err := c.Recommend(ctx, client.RecommendRequest{P: 0.95, NPrimary: 40, Runs: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Best == "" || len(rec.Analyses) == 0 {
		t.Errorf("recommend %+v", rec)
	}

	rc, err := c.Reconfigure(ctx, client.ReconfigureRequest{Design: "DTMB(2,6)", NPrimary: 60, FaultyCells: []int{0, 7}})
	if err != nil {
		t.Fatal(err)
	}
	if !rc.OK {
		t.Errorf("reconfigure %+v", rc)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed == 0 {
		t.Errorf("stats %+v", st)
	}
}

func TestClientEvaluateRoundTrip(t *testing.T) {
	srv, _ := newTestServer(t, service.EngineConfig{DefaultRuns: 200, CacheSize: 32})
	c := client.New(srv.URL)
	ctx := context.Background()

	res, err := c.Evaluate(ctx, client.Scenario{
		Strategy: "hex", Design: "DTMB(2,6)", NPrimary: 40, P: 0.95, Runs: 200, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "hex" || res.Design != "DTMB(2,6)" || res.Yield <= 0 {
		t.Errorf("evaluate %+v", res)
	}

	// Server-side validation surfaces as a typed *APIError with the 400.
	_, err = c.Evaluate(ctx, client.Scenario{Strategy: "bogus", NPrimary: 40, P: 0.9})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid scenario error = %v", err)
	}
	if !strings.Contains(apiErr.Message, "unknown strategy") {
		t.Errorf("error message %q", apiErr.Message)
	}
}

// TestClientSurfacesRequestID pins the trace-ID contract: an APIError
// carries the response's X-Request-ID (server-assigned by default,
// caller-chosen via WithRequestID), and Error() prints it so even an
// unwrapped log line identifies the failed request server-side.
func TestClientSurfacesRequestID(t *testing.T) {
	srv, _ := newTestServer(t, service.EngineConfig{DefaultRuns: 150, CacheSize: 16})
	ctx := context.Background()
	bad := client.Scenario{Strategy: "bogus", NPrimary: 40, P: 0.9}

	_, err := client.New(srv.URL).Evaluate(ctx, bad)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("error = %v, want *APIError", err)
	}
	if apiErr.RequestID == "" {
		t.Error("APIError.RequestID empty, want the server-assigned X-Request-ID")
	}
	if !strings.Contains(apiErr.Error(), apiErr.RequestID) {
		t.Errorf("Error() %q does not mention request ID %q", apiErr.Error(), apiErr.RequestID)
	}

	_, err = client.New(srv.URL, client.WithRequestID("trace-cli-7")).Evaluate(ctx, bad)
	if !errors.As(err, &apiErr) {
		t.Fatalf("error = %v, want *APIError", err)
	}
	if apiErr.RequestID != "trace-cli-7" {
		t.Errorf("APIError.RequestID = %q, want the caller-chosen trace-cli-7", apiErr.RequestID)
	}
}

func TestClientJobLifecycleRoundTrip(t *testing.T) {
	srv, _ := newTestServer(t, service.EngineConfig{DefaultRuns: 150, CacheSize: 64})
	c := client.New(srv.URL)
	ctx := context.Background()

	st, err := c.CreateJob(ctx, jobGrid)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.TotalPoints != 16 {
		t.Fatalf("created %+v", st)
	}

	var recs []client.SweepRecord
	next, err := c.StreamJobResults(ctx, st.ID, 0, func(r client.SweepRecord) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if next != 16 || len(recs) != 16 {
		t.Fatalf("streamed %d records, next %d", len(recs), next)
	}
	for i, r := range recs {
		if r.Index != i {
			t.Errorf("record %d has index %d", i, r.Index)
		}
	}

	got, err := c.Job(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != service.JobCompleted || got.PointsDone != 16 {
		t.Errorf("final status %+v", got)
	}

	// A callback abort is the caller's error, surfaced as-is — not a
	// transport fault to retry (which would re-invoke the callback with
	// already-delivered records).
	errStop := errors.New("stop here")
	seen := 0
	next, err = c.StreamJobResults(ctx, st.ID, 0, func(client.SweepRecord) error {
		if seen == 3 {
			return errStop
		}
		seen++
		return nil
	})
	if !errors.Is(err, errStop) {
		t.Errorf("callback abort surfaced as %v", err)
	}
	if next != 3 || seen != 3 {
		t.Errorf("callback invoked %d times, next %d; want 3, 3", seen, next)
	}

	// Unknown job: typed 404.
	_, err = c.Job(ctx, "job-999")
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job error = %v", err)
	}
}

func TestClientCancelJobRoundTrip(t *testing.T) {
	srv, _ := newTestServer(t, service.EngineConfig{DefaultRuns: 150, MaxConcurrent: 1})
	c := client.New(srv.URL)
	ctx := context.Background()

	slow := client.SweepRequest{
		Strategies: []string{"local", "hex"}, Designs: []string{"DTMB(4,4)"},
		NPrimaries: []int{100}, PMin: 0.90, PMax: 0.99, PPoints: 16,
		DefectModels: []string{"independent", "clustered"}, Runs: 200000, Seed: 3,
	}
	st, err := c.CreateJob(ctx, slow)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, err := c.CancelJob(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cancelled.State != service.JobCancelled {
		t.Fatalf("cancelled state %q", cancelled.State)
	}
	// The stream of a cancelled job surfaces a *StreamError, not silence.
	_, err = c.StreamJobResults(ctx, st.ID, 0, func(client.SweepRecord) error { return nil })
	var streamErr *client.StreamError
	if !errors.As(err, &streamErr) {
		t.Fatalf("cancelled stream error = %v", err)
	}
}

func TestClientRunJob(t *testing.T) {
	srv, _ := newTestServer(t, service.EngineConfig{DefaultRuns: 150, CacheSize: 64})
	c := client.New(srv.URL)

	count := 0
	st, err := c.RunJob(context.Background(), jobGrid, func(client.SweepRecord) error {
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 16 || st.State != service.JobCompleted {
		t.Errorf("RunJob: %d records, status %+v", count, st)
	}
}

// TestClientMiddlewareContract covers the server middleware through the
// client's transport: POSTs without application/json are rejected with 415,
// and X-Request-ID round-trips.
func TestClientMiddlewareContract(t *testing.T) {
	srv, _ := newTestServer(t, service.EngineConfig{DefaultRuns: 150})

	resp, err := http.Post(srv.URL+"/v1/yield", "text/plain",
		strings.NewReader(`{"design":"DTMB(2,6)","n_primary":60,"p":0.95}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Errorf("plain-text POST status = %d, want 415", resp.StatusCode)
	}
	var eb struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || !strings.Contains(eb.Error, "application/json") {
		t.Errorf("415 body: %v %q", err, eb.Error)
	}
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("no generated X-Request-ID on response")
	}

	req, err := http.NewRequest(http.MethodGet, srv.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "trace-42")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-ID"); got != "trace-42" {
		t.Errorf("echoed X-Request-ID = %q, want trace-42", got)
	}

	// A forged ID that could inject key=value fields into the access log is
	// discarded and replaced with a generated one.
	req2, err := http.NewRequest(http.MethodGet, srv.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req2.Header.Set("X-Request-ID", "x status=500 remote=evil")
	resp3, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if got := resp3.Header.Get("X-Request-ID"); !strings.HasPrefix(got, "req-") {
		t.Errorf("forged X-Request-ID echoed back: %q", got)
	}
}

// chokeProxy forwards to a backend but aborts the connection of every
// results-stream response after limit bytes, until remaining kill budgets
// run out — a deterministic stand-in for a flaky network.
type chokeProxy struct {
	backend http.Handler
	mu      sync.Mutex
	kills   int
	limit   int
}

func (p *chokeProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	kill := p.kills > 0 && strings.HasSuffix(r.URL.Path, "/results")
	if kill {
		p.kills--
	}
	p.mu.Unlock()
	if !kill {
		p.backend.ServeHTTP(w, r)
		return
	}
	p.backend.ServeHTTP(&chokedWriter{ResponseWriter: w, remaining: p.limit}, r)
}

// chokedWriter aborts the handler (and with it the HTTP connection) once
// its byte budget is spent. Aborting mid-line exercises the client's
// partial-record handling.
type chokedWriter struct {
	http.ResponseWriter
	remaining int
}

func (w *chokedWriter) Write(p []byte) (int, error) {
	if len(p) > w.remaining {
		if w.remaining > 0 {
			_, _ = w.ResponseWriter.Write(p[:w.remaining])
			if f, ok := w.ResponseWriter.(http.Flusher); ok {
				f.Flush()
			}
		}
		panic(http.ErrAbortHandler)
	}
	w.remaining -= len(p)
	return w.ResponseWriter.Write(p)
}

func (w *chokedWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// TestClientResumesAfterKilledConnections kills the results connection
// mid-stream — mid-record, repeatedly — and asserts the client's automatic
// resume delivers every record exactly once, in order, with bytes identical
// to an uninterrupted stream.
func TestClientResumesAfterKilledConnections(t *testing.T) {
	engine := service.NewEngine(service.EngineConfig{DefaultRuns: 150, CacheSize: 64})
	jobs := service.NewJobStore(engine, service.JobStoreConfig{})
	defer jobs.Close(context.Background())
	backend := service.NewHandler(engine, jobs, slog.New(slog.NewJSONHandler(testWriter{t}, nil)))

	// 700 bytes is roughly two and a half records: every kill lands inside a
	// record, never on a clean boundary.
	proxy := &chokeProxy{backend: backend, kills: 3, limit: 700}
	srv := httptest.NewServer(proxy)
	defer srv.Close()

	ctx := context.Background()
	c := client.New(srv.URL, client.WithPolicy(client.Policy{MaxAttempts: 6, BaseBackoff: 10 * time.Millisecond}))
	st, err := c.CreateJob(ctx, jobGrid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jobs.Get(st.ID); err != nil {
		t.Fatal(err)
	}

	var interrupted bytes.Buffer
	enc := json.NewEncoder(&interrupted)
	next, err := c.StreamJobResults(ctx, st.ID, 0, func(r client.SweepRecord) error {
		return enc.Encode(r)
	})
	if err != nil {
		t.Fatalf("stream with kills: %v", err)
	}
	if next != 16 {
		t.Fatalf("next cursor = %d, want 16", next)
	}

	// Reference: the same stream with no kills, re-encoded the same way.
	var clean bytes.Buffer
	cleanEnc := json.NewEncoder(&clean)
	if _, err := c.StreamJobResults(ctx, st.ID, 0, func(r client.SweepRecord) error {
		return cleanEnc.Encode(r)
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(interrupted.Bytes(), clean.Bytes()) {
		t.Errorf("interrupted+resumed records differ from uninterrupted stream:\n%s\nvs\n%s",
			interrupted.Bytes(), clean.Bytes())
	}

	// The retry budget is finite: with a proxy that kills every attempt and
	// a job that never delivers a full record per attempt, the stream fails.
	proxy.mu.Lock()
	proxy.kills = 1 << 30
	proxy.limit = 10
	proxy.mu.Unlock()
	short := client.New(srv.URL, client.WithPolicy(client.Policy{MaxAttempts: 3, BaseBackoff: time.Millisecond}))
	if _, err := short.StreamJobResults(ctx, st.ID, 0, func(client.SweepRecord) error { return nil }); err == nil {
		t.Error("stream against a dead network succeeded")
	}
}
