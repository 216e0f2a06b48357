package service

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"dmfb/internal/telemetry"
)

// doHandler sends one request through the full production handler
// (middleware included), with the JSON content type POSTs require.
func doHandler(t *testing.T, h http.Handler, method, path, body string, header map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if method == http.MethodPost {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// sampleValue sums every sample of a family whose label body contains want
// (pass "" to sum all its samples).
func sampleValue(exp *telemetry.Exposition, name, want string) float64 {
	var sum float64
	for _, s := range exp.Samples {
		if s.Name == name && strings.Contains(s.Labels, want) {
			sum += s.Value
		}
	}
	return sum
}

// TestMetricsEndpoint drives real traffic through the production handler
// and checks that GET /metrics serves a valid Prometheus exposition whose
// numbers agree with the traffic: one scenario of each cache kind, each
// simulated once (a miss) and repeated once (a hit), with the kernel trial
// counter matching the run counts.
func TestMetricsEndpoint(t *testing.T) {
	e := NewEngine(EngineConfig{CacheSize: 16, DefaultRuns: 300})
	h := NewHandler(e, nil, nil)
	scenarios := []struct{ kind, path, body string }{
		{"yield", "/v1/yield", `{"design":"DTMB(2,6)","n_primary":60,"p":0.95,"runs":300,"seed":1}`},
		{"local-clustered", "/v2/evaluate", `{"strategy":"local","design":"DTMB(2,6)","n_primary":60,"p":0.95,"defect_model":"clustered","runs":300,"seed":1}`},
		{"hex", "/v2/evaluate", `{"strategy":"hex","design":"DTMB(2,6)","n_primary":60,"p":0.95,"runs":300,"seed":1}`},
		{"shifted", "/v2/evaluate", `{"strategy":"shifted","n_primary":60,"p":0.95,"runs":300,"seed":1}`},
	}
	for _, sc := range scenarios {
		for i := 0; i < 2; i++ {
			if w := doHandler(t, h, http.MethodPost, sc.path, sc.body, nil); w.Code != http.StatusOK {
				t.Fatalf("%s request %d: status %d: %s", sc.kind, i, w.Code, w.Body)
			}
		}
	}
	w := doHandler(t, h, http.MethodGet, "/metrics", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics status %d: %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("/metrics Content-Type = %q, want text/plain", ct)
	}
	exp, err := telemetry.ParseExposition(w.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	fams := exp.Families()
	for _, want := range []string{
		"dmfb_kernel_trials_total",
		"dmfb_kernel_trials_all_healthy_total",
		"dmfb_kernel_trials_screened_total",
		"dmfb_kernel_matcher_invocations_total",
		"dmfb_kernel_chunk_duration_seconds",
		"dmfb_cache_hits_total",
		"dmfb_cache_misses_total",
		"dmfb_cache_entries",
		"dmfb_cache_capacity",
		"dmfb_http_requests_total",
		"dmfb_http_request_duration_seconds",
		"dmfb_admission_wait_seconds",
		"dmfb_simulations_in_flight",
		"dmfb_simulations_completed_total",
		"dmfb_flight_shared_total",
		"dmfb_jobs_active",
		"dmfb_jobs_completed_total",
		"dmfb_job_result_buffer_bytes",
		"dmfb_job_duration_seconds",
		"dmfb_job_evictions_total",
		"dmfb_stream_flushes_total",
		"dmfb_uptime_seconds",
	} {
		if !fams[want] {
			t.Errorf("/metrics missing family %s", want)
		}
	}
	if got := sampleValue(exp, "dmfb_kernel_trials_total", ""); got != 4*300 {
		t.Errorf("kernel trials = %v, want 1200 (four uncached simulations)", got)
	}
	for _, sc := range scenarios {
		label := `kind="` + sc.kind + `"`
		if got := sampleValue(exp, "dmfb_cache_misses_total", label); got != 1 {
			t.Errorf(`cache misses{%s} = %v, want 1`, label, got)
		}
		if got := sampleValue(exp, "dmfb_cache_hits_total", label); got != 1 {
			t.Errorf(`cache hits{%s} = %v, want 1`, label, got)
		}
	}
	// The scrape itself records its own metrics only after the handler
	// returns, so at scrape time exactly the eight scenario POSTs had
	// finished.
	if got := sampleValue(exp, "dmfb_http_requests_total", `code="200"`); got != 8 {
		t.Errorf(`http requests{code="200"} = %v, want 8`, got)
	}
	if got := sampleValue(exp, "dmfb_kernel_chunk_duration_seconds_count", ""); got == 0 {
		t.Error("kernel chunk histogram recorded no chunks")
	}
	if got := sampleValue(exp, "dmfb_admission_wait_seconds_count", ""); got != 4 {
		t.Errorf("admission waits = %v, want 4 (four uncached simulations)", got)
	}
}

// TestStatsReportsKernelAndStreamCounters exercises a streaming sweep and
// checks the extended /v1/stats fields that summarize the telemetry
// registry: kernel trial counts, admission waits, and NDJSON flushes
// (httptest's recorder implements http.Flusher, so each record flushes).
func TestStatsReportsKernelAndStreamCounters(t *testing.T) {
	e := NewEngine(EngineConfig{CacheSize: 16, DefaultRuns: 200})
	h := NewHandler(e, nil, nil)
	sweep := `{"strategies":["none","local"],"designs":["DTMB(2,6)"],"n_primaries":[40],"ps":[0.9,0.95],"runs":200,"seed":3}`
	if w := doHandler(t, h, http.MethodPost, "/v1/sweep", sweep, nil); w.Code != http.StatusOK {
		t.Fatalf("sweep status %d: %s", w.Code, w.Body)
	}
	w := doHandler(t, h, http.MethodGet, "/v1/stats", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("stats status %d: %s", w.Code, w.Body)
	}
	var st StatsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	// Two local-strategy points simulate (the "none" strategy is closed
	// form): 2 × 200 trials through the kernel.
	if st.KernelTrials != 400 {
		t.Errorf("stats kernel_trials = %d, want 400", st.KernelTrials)
	}
	if st.KernelAllHealthy+st.KernelScreened+st.KernelMatcherInvocations != st.KernelTrials {
		t.Errorf("all_healthy %d + screened %d + matcher %d != trials %d",
			st.KernelAllHealthy, st.KernelScreened, st.KernelMatcherInvocations, st.KernelTrials)
	}
	if st.KernelScreened == 0 {
		t.Error("stats kernel_screened = 0, want > 0 (p=0.9 and 0.95 draw uncontested faults)")
	}
	if st.KernelChunks == 0 {
		t.Error("stats kernel_chunks = 0, want > 0")
	}
	if st.AdmissionWaits != 2 {
		t.Errorf("stats admission_waits = %d, want 2", st.AdmissionWaits)
	}
	// One flush per committed run of records: how many points a run holds
	// depends on timing, so the count lies between one and one per point.
	flushes := metricValue(t, e, `dmfb_stream_flushes_total{stream="sweep"}`)
	if st.StreamFlushes < 1 || st.StreamFlushes > 4 || float64(st.StreamFlushes) != flushes {
		t.Errorf("stats stream_flushes = %d, metric %v; want one count in [1,4]", st.StreamFlushes, flushes)
	}
}

// syncBuffer is a mutex-guarded log sink: kernel workers emit chunk spans
// concurrently with the serving goroutine's access log.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Lines() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return strings.Split(strings.TrimSpace(b.buf.String()), "\n")
}

// TestTraceIDLinksAccessLogToKernelSpans sends one yield request with a
// caller-chosen X-Request-ID through a debug-level logger shared by the
// middleware and the engine, and verifies the ID appears both in the
// http_access line and in every kernel_chunk span the request caused —
// the cross-layer join the observability design promises.
func TestTraceIDLinksAccessLogToKernelSpans(t *testing.T) {
	sink := &syncBuffer{}
	logger := slog.New(slog.NewJSONHandler(sink, &slog.HandlerOptions{Level: slog.LevelDebug}))
	e := NewEngine(EngineConfig{CacheSize: 16, DefaultRuns: 500, Logger: logger})
	h := NewHandler(e, nil, logger)
	body := `{"design":"DTMB(2,6)","n_primary":60,"p":0.95,"runs":500,"seed":9}`
	w := doHandler(t, h, http.MethodPost, "/v1/yield", body, map[string]string{"X-Request-ID": "trace-join-1"})
	if w.Code != http.StatusOK {
		t.Fatalf("yield status %d: %s", w.Code, w.Body)
	}
	if got := w.Header().Get("X-Request-ID"); got != "trace-join-1" {
		t.Fatalf("X-Request-ID echoed as %q, want trace-join-1", got)
	}
	var access, spans int
	for _, line := range sink.Lines() {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %q: %v", line, err)
		}
		switch rec["msg"] {
		case "http_access":
			access++
			if rec["request_id"] != "trace-join-1" {
				t.Errorf("http_access request_id = %v, want trace-join-1", rec["request_id"])
			}
		case "kernel_chunk":
			spans++
			if rec["trace_id"] != "trace-join-1" {
				t.Errorf("kernel_chunk trace_id = %v, want trace-join-1", rec["trace_id"])
			}
		}
	}
	if access != 1 {
		t.Errorf("got %d http_access lines, want 1", access)
	}
	if spans == 0 {
		t.Error("no kernel_chunk spans logged at debug level")
	}
}
