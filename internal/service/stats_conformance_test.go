// /v1/stats ≡ /metrics conformance. It lives in package service_test so it
// can wire a dispatch coordinator and worker exactly as cmd/dtmb-serve does.
package service_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dmfb/internal/dispatch"
	"dmfb/internal/service"
	"dmfb/internal/telemetry"
)

// statsFamilies maps every /v1/stats field to the /metrics sample it reports
// (API.md carries the same table). Histogram-backed fields name the
// family's _count or _sum sample. uptime_seconds moves between the two
// scrapes and cache_hit_rate is derived, so neither is listed.
var statsFamilies = map[string]string{
	"cache_hits":                   "dmfb_cache_hits_total",
	"cache_misses":                 "dmfb_cache_misses_total",
	"cache_size":                   "dmfb_cache_entries",
	"cache_capacity":               "dmfb_cache_capacity",
	"in_flight":                    "dmfb_simulations_in_flight",
	"shared_flights":               "dmfb_flight_shared_total",
	"completed":                    "dmfb_simulations_completed_total",
	"jobs_active":                  "dmfb_jobs_active",
	"jobs_completed":               "dmfb_jobs_completed_total",
	"jobs_cancelled":               "dmfb_jobs_cancelled_total",
	"jobs_failed":                  "dmfb_jobs_failed_total",
	"points_evaluated":             "dmfb_job_points_evaluated_total",
	"kernel_trials":                "dmfb_kernel_trials_total",
	"kernel_all_healthy":           "dmfb_kernel_trials_all_healthy_total",
	"kernel_screened":              "dmfb_kernel_trials_screened_total",
	"kernel_matcher_invocations":   "dmfb_kernel_matcher_invocations_total",
	"kernel_chunks":                "dmfb_kernel_chunk_duration_seconds_count",
	"kernel_early_stops":           "dmfb_kernel_early_stops_total",
	"admission_waits":              "dmfb_admission_wait_seconds_count",
	"admission_wait_seconds_total": "dmfb_admission_wait_seconds_sum",
	"job_result_buffer_bytes":      "dmfb_job_result_buffer_bytes",
	"job_evictions":                "dmfb_job_evictions_total",
	"stream_flushes":               "dmfb_stream_flushes_total",
	"job_store_disk_bytes":         "dmfb_job_store_disk_bytes",
	"dispatch_shards_leased":       "dmfb_dispatch_shards_leased_total",
	"dispatch_shards_completed":    "dmfb_dispatch_shards_completed_total",
	"dispatch_shards_expired":      "dmfb_dispatch_shards_expired_total",
	"dispatch_shards_quarantined":  "dmfb_shards_quarantined_total",
	"dispatch_retries":             "dmfb_retries_total",
	"workers_active":               "dmfb_workers_active",
}

// TestStatsMatchesMetrics drives an uncached evaluate, a cached evaluate and
// one distributed job through a dtmb-serve-shaped stack (one registry, a
// durable store, a coordinator, an in-process worker), then checks that
// every /v1/stats field equals its family in a scrape of /metrics.
func TestStatsMatchesMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := service.NewEngine(service.EngineConfig{DefaultRuns: 150, CacheSize: 64, Registry: reg})
	coord := dispatch.NewCoordinator(dispatch.Config{ShardSize: 2, Registry: reg})
	defer coord.Close()
	store, err := service.NewFileJobStore(e, service.JobStoreConfig{Runner: coord}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close(context.Background())
	waitReady(t, store)
	srv := httptest.NewServer(service.NewHandler(e, store, nil, coord.Routes()...))
	defer srv.Close()
	wctx, stopWorker := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer wg.Wait()
	defer stopWorker()
	startWorkers(t, &wg, wctx, srv.URL, 1)

	eval := `{"strategy":"local","design":"DTMB(2,6)","n_primary":100,"p":0.95,"runs":2000,"seed":7}`
	for _, wantCached := range []bool{false, true} {
		var rec service.ScenarioRecord
		post(t, srv.URL+"/v2/evaluate", eval, http.StatusOK, &rec)
		if rec.Cached != wantCached {
			t.Fatalf("evaluate cached = %v, want %v", rec.Cached, wantCached)
		}
	}
	var job service.JobStatus
	post(t, srv.URL+"/v2/jobs", `{"strategies":["local","hex"],"designs":["DTMB(2,6)"],`+
		`"n_primaries":[100],"p_min":0.9,"p_max":0.99,"p_points":3,"runs":500,"seed":3,"distributed":true}`,
		http.StatusAccepted, &job)
	// The results stream follows the job to its terminal state.
	if body := get(t, srv.URL+"/v2/jobs/"+job.ID+"/results"); strings.Contains(body, `"error"`) {
		t.Fatalf("distributed job failed: %s", body)
	}
	// The store accounts a finished job's bytes as its last step; wait for
	// it so both scrapes see the same settled store.
	deadline := time.Now().Add(30 * time.Second)
	for e.Stats().JobResultBufferBytes == 0 {
		if time.Now().After(deadline) {
			t.Fatal("finished job never accounted its result bytes")
		}
		time.Sleep(2 * time.Millisecond)
	}

	var stats map[string]float64
	if err := json.Unmarshal([]byte(get(t, srv.URL+"/v1/stats")), &stats); err != nil {
		t.Fatal(err)
	}
	exp, err := telemetry.ParseExposition(strings.NewReader(get(t, srv.URL+"/metrics")))
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	samples := make(map[string]float64)
	for _, s := range exp.Samples {
		samples[s.Name] += s.Value
	}
	for field, got := range stats {
		if field == "uptime_seconds" || field == "cache_hit_rate" {
			continue
		}
		name, ok := statsFamilies[field]
		if !ok {
			t.Errorf("/v1/stats field %q has no /metrics family in the table", field)
			continue
		}
		want, ok := samples[name]
		if !ok {
			t.Errorf("%s: family sample %s absent from /metrics", field, name)
		} else if got != want {
			t.Errorf("%s = %v, /metrics %s = %v", field, got, name, want)
		}
	}
	if len(stats) != len(statsFamilies)+2 {
		t.Errorf("/v1/stats has %d fields, table covers %d + 2", len(stats), len(statsFamilies))
	}
	// Guard against a vacuous pass: the workload must have moved every
	// layer the fields report.
	for _, field := range []string{"cache_hits", "cache_misses", "completed", "kernel_trials",
		"jobs_completed", "points_evaluated", "stream_flushes", "job_store_disk_bytes",
		"dispatch_shards_completed", "workers_active"} {
		if stats[field] == 0 {
			t.Errorf("%s = 0 after the workload", field)
		}
	}
}

func post(t *testing.T, url, body string, wantCode int, out any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s: status %d, want %d: %s", url, resp.StatusCode, wantCode, b)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, %v: %s", url, resp.StatusCode, err, b)
	}
	return string(b)
}
