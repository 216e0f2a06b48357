package service

import (
	"dmfb/internal/telemetry"
)

// serviceMetrics bundles every service-layer instrument: the kernel bundle
// threaded down into simulations, plus the sweep, HTTP, cache, admission,
// streaming, and job instruments the engine and handlers record directly.
// It is built once per engine from the configured registry; with a nil
// registry every instrument still works (unregistered), so no layer needs
// nil checks.
type serviceMetrics struct {
	registry *telemetry.Registry

	kernel *telemetry.KernelMetrics

	// sweepPoints observes the wall time of each successful sweep grid
	// point, cache hits included, by strategy × defect model.
	sweepPoints *telemetry.HistogramVec

	// httpRequests counts finished requests by status code; httpDuration is
	// the request wall-time histogram. Both are recorded by the middleware.
	httpRequests *telemetry.CounterVec
	httpDuration *telemetry.Histogram
	// cacheHits/cacheMisses count result-cache lookups by the kind the key
	// derives from its scenario ("yield", "local-clustered", "hex",
	// "shifted"), recorded inside the cache.
	cacheHits   *telemetry.CounterVec
	cacheMisses *telemetry.CounterVec
	// admissionWait observes how long each admitted simulation waited on the
	// engine's admission semaphore (uncontended admissions observe ~0).
	admissionWait *telemetry.Histogram
	// streamFlushes counts flushes of NDJSON streaming responses, by
	// stream: "sweep" (POST /v1/sweep) flushes once per committed run of
	// records, "job" (GET /v2/jobs/{id}/results) once per wake, after
	// every line available.
	streamFlushes *telemetry.CounterVec
	// jobDuration observes each sweep job's creation-to-terminal wall time;
	// jobEvictions counts finished jobs evicted by the store's retention and
	// byte bounds.
	jobDuration  *telemetry.Histogram
	jobEvictions *telemetry.Counter
	// storeWriteErrors counts durable-store write failures (manifest saves
	// and result appends that errored); each one turns into a typed
	// failed/storage job rather than a wedged store, so a non-zero rate here
	// is an operator page, not a client bug.
	storeWriteErrors *telemetry.Counter
}

// jobDurationBuckets spans the realistic job range: sub-second cached grids
// to multi-minute cold sweeps.
var jobDurationBuckets = []float64{0.01, 0.05, 0.25, 1, 5, 30, 120, 600}

// newServiceMetrics registers the service instrument set on r (nil r yields
// working, unregistered instruments).
func newServiceMetrics(r *telemetry.Registry) *serviceMetrics {
	m := &serviceMetrics{
		registry: r,
		kernel:   telemetry.NewKernelMetrics(r),
		sweepPoints: r.HistogramVec("dmfb_sweep_point_duration_seconds",
			"Wall time of one sweep grid-point evaluation.", nil,
			"strategy", "defect_model"),
		httpRequests: r.CounterVec("dmfb_http_requests_total",
			"HTTP requests served, by status code.", "code"),
		httpDuration: r.Histogram("dmfb_http_request_duration_seconds",
			"Wall time of one HTTP request.", nil),
		cacheHits: r.CounterVec("dmfb_cache_hits_total",
			"Result-cache hits, by cache namespace.", "kind"),
		cacheMisses: r.CounterVec("dmfb_cache_misses_total",
			"Result-cache misses, by cache namespace.", "kind"),
		admissionWait: r.Histogram("dmfb_admission_wait_seconds",
			"Time each admitted simulation waited on the admission semaphore.", nil),
		streamFlushes: r.CounterVec("dmfb_stream_flushes_total",
			"Flushes of NDJSON streaming responses, by stream.", "stream"),
		jobDuration: r.Histogram("dmfb_job_duration_seconds",
			"Wall time of one sweep job from creation to terminal state.", jobDurationBuckets),
		jobEvictions: r.Counter("dmfb_job_evictions_total",
			"Finished jobs evicted to satisfy the store's retention bounds."),
		storeWriteErrors: r.Counter("dmfb_store_write_errors_total",
			"Durable job-store write failures (manifest saves and result appends)."),
	}
	// Materialize both stream children so the family is present on the very
	// first scrape, before any NDJSON response has flushed.
	m.streamFlushes.With("sweep")
	m.streamFlushes.With("job")
	return m
}
