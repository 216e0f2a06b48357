package service

import (
	"context"
	"errors"
	"log/slog"
	"sync/atomic"
	"time"

	"dmfb/internal/core"
	"dmfb/internal/layout"
	"dmfb/internal/reconfig"
	"dmfb/internal/sweep"
	"dmfb/internal/telemetry"
)

// EngineConfig tunes the batched simulation engine. The zero value gives
// sensible defaults.
type EngineConfig struct {
	// CacheSize bounds the LRU result cache, in entries of about 0.18 KB; 0 means 1024.
	CacheSize int
	// DefaultRuns is the Monte-Carlo run count for requests that omit runs;
	// 0 means the paper's 10000.
	DefaultRuns int
	// Workers bounds per-simulation parallelism; 0 means GOMAXPROCS. It does
	// not affect results — the chunk-seeded kernel is worker-independent.
	Workers int
	// MaxConcurrent bounds simulations executing at once; excess requests
	// queue on the semaphore (respecting cancellation). 0 means 2: each
	// simulation already fans out across GOMAXPROCS workers, so a small
	// admission bound keeps cores saturated without heavy oversubscription,
	// while a lone request still uses the whole machine.
	MaxConcurrent int
	// Registry receives every engine instrument — kernel, cache, admission,
	// flight, and job series — and backs GET /metrics. nil leaves the
	// instruments unregistered (they still count, nothing is exposed).
	Registry *telemetry.Registry
	// Logger is handed to every Monte-Carlo kernel the engine builds; at
	// debug level the kernel emits per-chunk span events carrying the
	// request's trace ID. nil disables kernel spans.
	Logger *slog.Logger
}

func (c EngineConfig) withDefaults() EngineConfig {
	if c.CacheSize <= 0 {
		c.CacheSize = 1024
	}
	if c.DefaultRuns <= 0 {
		c.DefaultRuns = 10000
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.Registry == nil {
		c.Registry = telemetry.NewRegistry()
	}
	return c
}

// Engine executes yield-analysis requests: a bounded admission semaphore in
// front of the chunked Monte-Carlo kernel, an LRU cache over finished
// results, and single-flight deduplication so concurrent identical requests
// share one computation.
type Engine struct {
	cfg     EngineConfig
	cache   *resultCache
	flights *flightGroup
	sem     chan struct{}
	metrics *serviceMetrics
	logger  *slog.Logger

	inFlight      atomic.Int64
	sharedFlights atomic.Uint64
	completed     atomic.Uint64
	start         time.Time
}

// NewEngine builds an engine from the config.
func NewEngine(cfg EngineConfig) *Engine {
	cfg = cfg.withDefaults()
	m := newServiceMetrics(cfg.Registry)
	e := &Engine{
		cfg:     cfg,
		cache:   newResultCache(cfg.CacheSize, m.cacheHits, m.cacheMisses),
		flights: newFlightGroup(),
		sem:     make(chan struct{}, cfg.MaxConcurrent),
		metrics: m,
		logger:  cfg.Logger,
		start:   time.Now(),
	}
	// Callback series read the counters the engine already maintains; Stats
	// reads these same series back, so /metrics and /v1/stats report from
	// one source of truth.
	r := cfg.Registry
	r.GaugeFunc("dmfb_simulations_in_flight",
		"Simulations currently executing.",
		func() float64 { return float64(e.inFlight.Load()) })
	r.CounterFunc("dmfb_simulations_completed_total",
		"Simulations actually executed (cache misses that ran).",
		func() float64 { return float64(e.completed.Load()) })
	r.CounterFunc("dmfb_flight_shared_total",
		"Requests that piggybacked on an identical in-flight computation.",
		func() float64 { return float64(e.sharedFlights.Load()) })
	r.GaugeFunc("dmfb_cache_entries",
		"Entries currently held by the result cache.",
		func() float64 { return float64(e.cache.Len()) })
	r.Gauge("dmfb_cache_capacity",
		"Configured result-cache capacity.").Set(int64(cfg.CacheSize))
	r.GaugeFunc("dmfb_uptime_seconds",
		"Seconds since the engine was constructed.",
		func() float64 { return time.Since(e.start).Seconds() })
	return e
}

// Registry exposes the engine's metric registry (backing GET /metrics).
func (e *Engine) Registry() *telemetry.Registry { return e.metrics.registry }

// simParams assembles the core simulation parameters for a request, wiring
// in the engine's kernel instrumentation and logger. epsilon > 0 makes the
// simulation precision-targeted with runs as the trial budget; v1 endpoints
// pass 0 (fixed-run, bit-identical to the pre-epsilon engine).
func (e *Engine) simParams(runs int, seed int64, epsilon float64) core.SimParams {
	if runs <= 0 {
		runs = e.cfg.DefaultRuns
	}
	return core.SimParams{
		Runs:    runs,
		Seed:    seed,
		Workers: e.cfg.Workers,
		Epsilon: epsilon,
		Metrics: e.metrics.kernel,
		Logger:  e.logger,
	}
}

// acquire admits one simulation, waiting for a semaphore slot. Every
// admission observes its queue wait (uncontended admissions record ~0), so
// the wait histogram's count doubles as the admission count.
func (e *Engine) acquire(ctx context.Context) error {
	// A pre-cancelled context must not win a race against a free slot.
	if err := ctx.Err(); err != nil {
		return err
	}
	start := time.Now()
	select {
	case e.sem <- struct{}{}:
		e.metrics.admissionWait.Observe(time.Since(start).Seconds())
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (e *Engine) release() { <-e.sem }

// cachedCompute serves key from the cache or runs compute exactly once
// across concurrent identical requests, caching its result. The result's
// Cached flag reports whether it came from the cache (directly, by sharing
// another request's flight, or by winning a flight whose result a previous
// leader had just cached).
//
// The shared computation runs under the leader's context: if the leader's
// client disconnects, followers retry and one of them restarts the
// simulation. That trades wasted work under disconnect churn for the
// property that a simulation with no live waiters never burns CPU; a
// refcounted detached context could rescue near-finished work but is not
// worth the complexity at current workloads.
func (e *Engine) cachedCompute(ctx context.Context, key cacheKey, compute func() (sweep.PointResult, error)) (sweep.PointResult, error) {
	lookup := e.cache.Get
	for {
		if res, ok := lookup(key); ok {
			res.Cached = true
			return res, nil
		}
		// Retries after a cancelled leader are the same logical request;
		// don't let them re-count a cache miss.
		lookup = e.cache.peek
		res, err, shared := e.flights.Do(ctx, key, func() (sweep.PointResult, error) {
			// A previous leader may have cached the result between our cache
			// miss and winning this flight; don't re-run the simulation (and
			// don't double-count this request in the hit/miss stats).
			if res, ok := e.cache.peek(key); ok {
				res.Cached = true
				return res, nil
			}
			if err := e.acquire(ctx); err != nil {
				return sweep.PointResult{}, err
			}
			defer e.release()
			e.inFlight.Add(1)
			defer e.inFlight.Add(-1)
			res, err := compute()
			if err == nil {
				e.completed.Add(1)
				e.cache.Add(key, res)
			}
			return res, err
		})
		if shared {
			// A follower inherits the leader's error; if the leader was
			// cancelled but we were not, retry rather than surface a
			// cancellation the client never asked for.
			if err != nil && isContextErr(err) && ctx.Err() == nil {
				continue
			}
			// Count only flights that delivered a shared outcome — not a
			// follower surfacing its own cancellation.
			if err == nil || !isContextErr(err) {
				e.sharedFlights.Add(1)
			}
		}
		if err != nil {
			return sweep.PointResult{}, err
		}
		res.Cached = res.Cached || shared
		return res, nil
	}
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// yieldResponseOf converts an evaluated local-strategy scenario to the v1
// wire type, which simply never carries the success count; that keeps the
// v1 adapters byte-identical to the pre-scenario handlers.
func yieldResponseOf(res sweep.PointResult) YieldResponse {
	return YieldResponse{
		Design:         res.Design,
		NPrimary:       res.NPrimary,
		NTotal:         res.NTotal,
		P:              res.P,
		Runs:           res.Runs,
		Seed:           res.Seed,
		Yield:          res.Yield,
		CILo:           res.CILo,
		CIHi:           res.CIHi,
		EffectiveYield: res.EffectiveYield,
		NoRedundancy:   res.NoRedundancy,
		Cached:         res.Cached,
	}
}

// yieldScenario is the scenario of a /v1/yield request: the local
// strategy under the independent defect model.
func yieldScenario(design string, nPrimary int, p float64) sweep.Scenario {
	return sweep.Scenario{Strategy: sweep.Local, Design: design, NPrimary: nPrimary, P: p, DefectModel: sweep.Independent}
}

// Yield estimates one design's yield, serving repeats from the cache. It is
// a thin adapter over the scenario core: a /v1/yield request is exactly the
// local-strategy, independent-model scenario of its parameters.
func (e *Engine) Yield(ctx context.Context, req YieldRequest) (YieldResponse, error) {
	if err := req.validate(); err != nil {
		return YieldResponse{}, err
	}
	design, err := resolveDesign(req.Design)
	if err != nil {
		return YieldResponse{}, err
	}
	sp := e.simParams(req.Runs, req.Seed, 0)
	if err := validateWork(sp.Runs, req.NPrimary); err != nil {
		return YieldResponse{}, err
	}
	res, err := e.evalScenario(ctx, yieldScenario(design.Name, req.NPrimary, req.P), sp)
	if err != nil {
		return YieldResponse{}, err
	}
	return yieldResponseOf(res), nil
}

// Recommend evaluates all canonical designs and names the effective-yield
// winner — identical inputs return exactly what core.RecommendDesign does.
// Each design is evaluated as the /v1/yield scenario of its parameters, so
// a recommendation and the per-design yields share cache entries both ways.
// The response is cached iff every design was; its analyses always report
// cached: false, as the v1 wire contract has it.
func (e *Engine) Recommend(ctx context.Context, req RecommendRequest) (RecommendResponse, error) {
	if err := req.validate(); err != nil {
		return RecommendResponse{}, err
	}
	sp := e.simParams(req.Runs, req.Seed, 0)
	designs := layout.AllDesigns()
	// A recommendation simulates every canonical design, so the work cap
	// applies to the whole fan-out, not a single design's share.
	if err := validateWork(sp.Runs*len(designs), req.NPrimary); err != nil {
		return RecommendResponse{}, err
	}
	resp := RecommendResponse{Cached: true}
	bestEY := -1.0
	for _, d := range designs {
		res, err := e.evalScenario(ctx, yieldScenario(d.Name, req.NPrimary, req.P), sp)
		if err != nil {
			return RecommendResponse{}, err
		}
		resp.Cached = resp.Cached && res.Cached
		yr := yieldResponseOf(res)
		yr.Cached = false
		resp.Analyses = append(resp.Analyses, yr)
		if yr.EffectiveYield > bestEY {
			bestEY = yr.EffectiveYield
			resp.Best, resp.BestEffectiveYield = yr.Design, yr.EffectiveYield
		}
	}
	return resp, nil
}

// Reconfigure computes a local-reconfiguration plan for an explicit fault
// list. It is pure matching (no Monte-Carlo) and uncacheable in practice
// (fault lists rarely repeat), but at the admissible extremes (n_primary up
// to MaxNPrimary) matching is not cheap, so it still goes through the
// admission semaphore.
func (e *Engine) Reconfigure(ctx context.Context, req ReconfigureRequest) (ReconfigureResponse, error) {
	if err := req.validate(); err != nil {
		return ReconfigureResponse{}, err
	}
	design, err := resolveDesign(req.Design)
	if err != nil {
		return ReconfigureResponse{}, err
	}
	if err := e.acquire(ctx); err != nil {
		return ReconfigureResponse{}, err
	}
	defer e.release()
	e.inFlight.Add(1)
	defer e.inFlight.Add(-1)
	chip, err := core.New(design, req.NPrimary)
	if err != nil {
		return ReconfigureResponse{}, err
	}
	n := chip.Array().NumCells()
	ids := make([]layout.CellID, 0, len(req.FaultyCells))
	for _, c := range req.FaultyCells {
		if c < 0 || c >= n {
			return ReconfigureResponse{}, invalidf("faulty cell %d out of range [0,%d)", c, n)
		}
		ids = append(ids, layout.CellID(c))
	}
	if err := chip.SetFaulty(ids...); err != nil {
		return ReconfigureResponse{}, invalidf("%v", err)
	}
	plan, err := chip.Reconfigure()
	if err != nil {
		return ReconfigureResponse{}, err
	}
	return reconfigureResponse(plan, n), nil
}

// reconfigureResponse converts a reconfig.Plan to the wire type.
func reconfigureResponse(plan reconfig.Plan, nTotal int) ReconfigureResponse {
	resp := ReconfigureResponse{
		OK:              plan.OK,
		Assignments:     make([]Assignment, 0, len(plan.Assignments)),
		FaultyPrimaries: plan.FaultyPrimaries,
		FaultySpares:    plan.FaultySpares,
		NTotal:          nTotal,
	}
	for _, a := range plan.Assignments {
		resp.Assignments = append(resp.Assignments, Assignment{Faulty: int(a.Faulty), Spare: int(a.Spare)})
	}
	for _, id := range plan.Unmatched {
		resp.Unmatched = append(resp.Unmatched, int(id))
	}
	for _, id := range plan.HallWitness {
		resp.HallWitness = append(resp.HallWitness, int(id))
	}
	return resp
}

// Stats builds the GET /v1/stats body from the metric registry: each field
// is one /metrics family's value (API.md tabulates the mapping), so the two
// endpoints cannot drift. Job, store and dispatch fields read the series
// the job store and coordinator registered on the engine's registry, and
// read 0 when none did. The two histogram-backed fields are read through
// the engine's own handles; cache_hit_rate is derived.
func (e *Engine) Stats() StatsResponse {
	r := e.metrics.registry
	count := func(name string) uint64 { return uint64(r.Value(name)) }
	hits, misses := count("dmfb_cache_hits_total"), count("dmfb_cache_misses_total")
	rate := 0.0
	if hits+misses > 0 {
		rate = float64(hits) / float64(hits+misses)
	}
	return StatsResponse{
		CacheHits:     hits,
		CacheMisses:   misses,
		CacheHitRate:  rate,
		CacheSize:     int(r.Value("dmfb_cache_entries")),
		CacheCapacity: int(r.Value("dmfb_cache_capacity")),
		InFlight:      int64(r.Value("dmfb_simulations_in_flight")),
		SharedFlights: count("dmfb_flight_shared_total"),
		Completed:     count("dmfb_simulations_completed_total"),
		UptimeSeconds: r.Value("dmfb_uptime_seconds"),

		JobsActive:      int(r.Value("dmfb_jobs_active")),
		JobsCompleted:   count("dmfb_jobs_completed_total"),
		JobsCancelled:   count("dmfb_jobs_cancelled_total"),
		JobsFailed:      count("dmfb_jobs_failed_total"),
		PointsEvaluated: count("dmfb_job_points_evaluated_total"),

		KernelTrials:             count("dmfb_kernel_trials_total"),
		KernelAllHealthy:         count("dmfb_kernel_trials_all_healthy_total"),
		KernelScreened:           count("dmfb_kernel_trials_screened_total"),
		KernelMatcherInvocations: count("dmfb_kernel_matcher_invocations_total"),
		KernelChunks:             e.metrics.kernel.ChunkSeconds.Count(),
		KernelEarlyStops:         count("dmfb_kernel_early_stops_total"),

		AdmissionWaits:            e.metrics.admissionWait.Count(),
		AdmissionWaitSecondsTotal: e.metrics.admissionWait.Sum(),

		JobResultBufferBytes: int64(r.Value("dmfb_job_result_buffer_bytes")),
		JobEvictions:         count("dmfb_job_evictions_total"),
		StreamFlushes:        count("dmfb_stream_flushes_total"),
		JobStoreDiskBytes:    int64(r.Value("dmfb_job_store_disk_bytes")),

		DispatchShardsLeased:      count("dmfb_dispatch_shards_leased_total"),
		DispatchShardsCompleted:   count("dmfb_dispatch_shards_completed_total"),
		DispatchShardsExpired:     count("dmfb_dispatch_shards_expired_total"),
		DispatchShardsQuarantined: count("dmfb_shards_quarantined_total"),
		DispatchRetries:           count("dmfb_retries_total"),
		WorkersActive:             int(r.Value("dmfb_workers_active")),
	}
}

// DefaultRuns exposes the engine's default run count (for logs and tools).
func (e *Engine) DefaultRuns() int { return e.cfg.DefaultRuns }
