// Package service is the online serving layer of the library: an HTTP/JSON
// API exposing yield simulation, design recommendation,
// reconfiguration-plan queries, and streaming parameter sweeps over the
// core/yieldsim/reconfig/layout/sweep machinery.
//
// The package splits into
//
//   - types.go: the wire-level request/response contracts and validation,
//   - cache.go: a bounded LRU over finished simulation results,
//   - flight.go: single-flight deduplication of concurrent identical work,
//   - engine.go: the batched simulation engine combining the three,
//   - sweep.go: parameter-grid planning and cached point evaluation,
//   - handlers.go: the HTTP handlers, NDJSON streaming, and error mapping,
//   - server.go: server construction and graceful lifecycle.
//
// Simulation endpoints are deterministic in their request parameters (the
// chunk-seeded Monte-Carlo kernel is independent of worker count), which is
// what makes caching by request key sound — and, combined with ordered
// emission, what makes sweep responses byte-reproducible.
package service

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"dmfb/internal/layout"
)

// ErrInvalidRequest tags validation failures so handlers can map them to
// HTTP 400; wrap it with fmt.Errorf("%w: ...").
var ErrInvalidRequest = errors.New("invalid request")

// Resource bounds on a single request, so one cheap POST cannot monopolize
// a worker-pool slot for hours or drive array construction into huge
// allocations. Both are far above the paper's workloads (10000 runs,
// n ≤ 240) while keeping the worst-case request bounded.
const (
	// MaxRuns caps the Monte-Carlo run count of one request.
	MaxRuns = 1_000_000
	// MaxNPrimary caps the primary-cell count of one request.
	MaxNPrimary = 100_000
	// MaxWork caps runs × n_primary — the per-field caps alone would still
	// admit a request costing hours of CPU at both extremes at once.
	MaxWork = 2_000_000_000
	// MaxFaultyCells caps a reconfigure request's fault list; anything
	// larger than every cell of the largest admissible array is noise.
	MaxFaultyCells = 500_000
	// MaxSweepPoints caps the grid size of one sweep request.
	MaxSweepPoints = 20_000
	// MaxSweepWork caps the summed runs × n_primary of a whole sweep — a
	// sweep is one request, so its total cost is bounded like (a few of)
	// the single-point requests it replaces.
	MaxSweepWork = 10 * int64(MaxWork)
	// MaxClusterSize caps the clustered-defect cluster size of one request;
	// clusters larger than any admissible array are noise.
	MaxClusterSize = 1024
)

// validateWork bounds the total simulated trial-cells of one request; the
// engine calls it after defaulting the run count.
func validateWork(runs, nPrimary int) error {
	if int64(runs)*int64(nPrimary) > MaxWork {
		return invalidf("runs×n_primary = %d exceeds the per-request work cap %d", int64(runs)*int64(nPrimary), int64(MaxWork))
	}
	return nil
}

// invalidf builds an ErrInvalidRequest with detail.
func invalidf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalidRequest, fmt.Sprintf(format, args...))
}

// validateEpsilon bounds a request's precision target. Zero disables
// adaptive sampling; a meaningful half-width target is strictly inside
// (0, 1) — a proportion's 95% half-width can never reach 1, so epsilon ≥ 1
// is a confused request, not a cheap one.
func validateEpsilon(eps float64) error {
	if math.IsNaN(eps) || eps < 0 || eps >= 1 {
		return invalidf("epsilon must be in [0,1), got %v", eps)
	}
	return nil
}

// designsByName maps every accepted spelling of a design, lower-cased — the
// paper's name ("dtmb(2,6)") and its compact alias ("dtmb26") — to the
// design; designNames lists the paper's names for the unknown-design error.
// Both are built once: resolveDesign runs on every request, cache hits
// included.
var designsByName, designNames = indexDesigns()

func indexDesigns() (map[string]layout.Design, string) {
	all := layout.AllDesignsWithVariants()
	byName := make(map[string]layout.Design, 2*len(all))
	names := make([]string, len(all))
	compact := strings.NewReplacer("(", "", ")", "", ",", "")
	for i, d := range all {
		canonical := strings.ToLower(d.Name)
		for _, key := range []string{d.Name, canonical, compact.Replace(canonical)} {
			if _, taken := byName[key]; !taken { // the first design listed wins
				byName[key] = d
			}
		}
		names[i] = d.Name
	}
	return byName, strings.Join(names, ", ")
}

// resolveDesign maps a wire-level design name to a layout.Design. It accepts
// the paper's names ("DTMB(2,6)") and compact aliases ("dtmb26"),
// case-insensitively. The index holds the paper's spellings as written, so
// only a name in some other case is lower-cased, the one path that
// allocates.
func resolveDesign(name string) (layout.Design, error) {
	trimmed := strings.TrimSpace(name)
	d, ok := designsByName[trimmed]
	if !ok {
		d, ok = designsByName[strings.ToLower(trimmed)]
	}
	if ok {
		return d, nil
	}
	return layout.Design{}, invalidf("unknown design %q (try %s)", name, designNames)
}

// YieldRequest asks for a Monte-Carlo yield estimate of one design.
type YieldRequest struct {
	// Design names a DTMB(s, p) pattern, e.g. "DTMB(2,6)" or "dtmb26".
	Design string `json:"design"`
	// NPrimary is the number of primary cells of the array.
	NPrimary int `json:"n_primary"`
	// P is the cell survival probability in [0, 1].
	P float64 `json:"p"`
	// Runs is the Monte-Carlo run count; 0 means the engine default.
	Runs int `json:"runs,omitempty"`
	// Seed makes the estimate reproducible; identical requests hit the cache.
	Seed int64 `json:"seed,omitempty"`
}

func (r *YieldRequest) validate() error {
	if r.Design == "" {
		return invalidf("design is required")
	}
	if r.NPrimary <= 0 || r.NPrimary > MaxNPrimary {
		return invalidf("n_primary must be in [1,%d], got %d", MaxNPrimary, r.NPrimary)
	}
	if math.IsNaN(r.P) || r.P < 0 || r.P > 1 {
		return invalidf("p %v outside [0,1]", r.P)
	}
	if r.Runs < 0 || r.Runs > MaxRuns {
		return invalidf("runs must be in [0,%d], got %d", MaxRuns, r.Runs)
	}
	return nil
}

// YieldResponse is one design's yield analysis.
type YieldResponse struct {
	Design         string  `json:"design"`
	NPrimary       int     `json:"n_primary"`
	NTotal         int     `json:"n_total"`
	P              float64 `json:"p"`
	Runs           int     `json:"runs"`
	Seed           int64   `json:"seed"`
	Yield          float64 `json:"yield"`
	CILo           float64 `json:"ci_lo"`
	CIHi           float64 `json:"ci_hi"`
	EffectiveYield float64 `json:"effective_yield"`
	NoRedundancy   float64 `json:"no_redundancy"`
	// Cached reports whether the response was served from the result cache.
	Cached bool `json:"cached"`
}

// RecommendRequest asks which canonical design maximizes effective yield at
// survival probability P (the paper's Fig. 10 decision procedure).
type RecommendRequest struct {
	P        float64 `json:"p"`
	NPrimary int     `json:"n_primary"`
	Runs     int     `json:"runs,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
}

func (r *RecommendRequest) validate() error {
	if r.NPrimary <= 0 || r.NPrimary > MaxNPrimary {
		return invalidf("n_primary must be in [1,%d], got %d", MaxNPrimary, r.NPrimary)
	}
	if math.IsNaN(r.P) || r.P < 0 || r.P > 1 {
		return invalidf("p %v outside [0,1]", r.P)
	}
	if r.Runs < 0 || r.Runs > MaxRuns {
		return invalidf("runs must be in [0,%d], got %d", MaxRuns, r.Runs)
	}
	return nil
}

// RecommendResponse names the winning design and carries every analysis that
// fed the decision.
type RecommendResponse struct {
	Best               string          `json:"best"`
	BestEffectiveYield float64         `json:"best_effective_yield"`
	Analyses           []YieldResponse `json:"analyses"`
	Cached             bool            `json:"cached"`
}

// ReconfigureRequest asks for a local-reconfiguration plan of a design with
// the given faulty cells (e.g. from a test session's diagnosis).
type ReconfigureRequest struct {
	Design      string `json:"design"`
	NPrimary    int    `json:"n_primary"`
	FaultyCells []int  `json:"faulty_cells"`
}

func (r *ReconfigureRequest) validate() error {
	if r.Design == "" {
		return invalidf("design is required")
	}
	if r.NPrimary <= 0 || r.NPrimary > MaxNPrimary {
		return invalidf("n_primary must be in [1,%d], got %d", MaxNPrimary, r.NPrimary)
	}
	if len(r.FaultyCells) > MaxFaultyCells {
		return invalidf("faulty_cells has %d entries, cap is %d", len(r.FaultyCells), MaxFaultyCells)
	}
	return nil
}

// Assignment is one wire-level replacement: faulty primary → adjacent spare.
type Assignment struct {
	Faulty int `json:"faulty"`
	Spare  int `json:"spare"`
}

// ReconfigureResponse is the outcome of a reconfiguration attempt.
type ReconfigureResponse struct {
	// OK reports whether every faulty primary was repaired.
	OK bool `json:"ok"`
	// Assignments lists the replacements, sorted by faulty cell ID.
	Assignments []Assignment `json:"assignments"`
	// Unmatched lists faulty primaries left without a spare (empty when OK).
	Unmatched []int `json:"unmatched,omitempty"`
	// HallWitness, when OK is false, certifies infeasibility: a set of faulty
	// primaries whose combined spare neighborhood is too small.
	HallWitness     []int `json:"hall_witness,omitempty"`
	FaultyPrimaries int   `json:"faulty_primaries"`
	FaultySpares    int   `json:"faulty_spares"`
	NTotal          int   `json:"n_total"`
}

// SweepRequest asks for a Cartesian grid of yield scenarios, streamed back
// as one NDJSON record per grid point. Every axis is optional; the defaults
// reproduce the paper's Fig. 9 setting (the four canonical designs at
// n = 100, p from 0.90 to 1.00 in 11 steps, local reconfiguration).
type SweepRequest struct {
	// Strategies lists redundancy schemes: "none" (p^n baseline), "local"
	// (DTMB interstitial redundancy on a parallelogram footprint, the
	// paper's proposal), "shifted" (boundary spare rows, the Fig. 2
	// baseline) and/or "hex" (the same interstitial designs on a regular
	// hexagonal chip footprint). Empty means ["local"].
	Strategies []string `json:"strategies,omitempty"`
	// Designs lists DTMB designs for the local and hex strategies; names and
	// compact aliases are accepted as in /v1/yield. Empty means the
	// canonical four.
	Designs []string `json:"designs,omitempty"`
	// NPrimaries lists primary-cell counts; empty means [100].
	NPrimaries []int `json:"n_primaries,omitempty"`
	// Ps lists explicit survival probabilities; when empty the range
	// [p_min, p_max] is sampled at p_points evenly spaced values
	// (defaults: 0.90, 1.00, 11).
	Ps      []float64 `json:"ps,omitempty"`
	PMin    float64   `json:"p_min,omitempty"`
	PMax    float64   `json:"p_max,omitempty"`
	PPoints int       `json:"p_points,omitempty"`
	// SpareRows lists boundary spare-row counts for the shifted strategy;
	// empty means [1].
	SpareRows []int `json:"spare_rows,omitempty"`
	// DefectModels lists spatial defect models: "independent" (every cell
	// fails i.i.d. with probability 1−p, the paper's assumption) and/or
	// "clustered" (center-seeded defect clusters with geometric radius decay
	// at the same expected density). Empty means ["independent"].
	DefectModels []string `json:"defect_models,omitempty"`
	// ClusterSize is the expected faulty cells per cluster for the clustered
	// model; 0 means the default (4).
	ClusterSize float64 `json:"cluster_size,omitempty"`
	// Runs is the Monte-Carlo run count per grid point; 0 means the engine
	// default. Closed-form (none-strategy) points ignore it.
	Runs int `json:"runs,omitempty"`
	// Seed makes every grid point reproducible and cacheable.
	Seed int64 `json:"seed,omitempty"`
	// Epsilon, when positive, makes every Monte-Carlo grid point
	// precision-targeted: the kernel stops at the first deterministic chunk
	// boundary where the Wilson 95% half-width reaches epsilon, with runs as
	// the per-point trial budget. Each record's runs field reports the
	// realized count. Must be in [0, 1); 0 keeps fixed-run behavior.
	Epsilon float64 `json:"epsilon,omitempty"`
	// Distributed, on a /v2/jobs request, shards the sweep across registered
	// remote workers instead of evaluating in-process. Requires the server to
	// run with dispatch enabled; the merged result stream is byte-identical
	// to local execution. Ignored (rejected) by the synchronous /v1/sweep.
	Distributed bool `json:"distributed,omitempty"`
}

// SweepRecord is one NDJSON line of a sweep response: the grid point's
// index followed by its evaluated scenario. Records arrive in deterministic
// point order (index ascending), so a sweep's byte stream is a pure
// function of the request for a fresh cache. The embedded ScenarioRecord
// inlines on the wire, keeping the v1 field order intact.
type SweepRecord struct {
	Index int `json:"index"`
	ScenarioRecord
}

// SweepError is the trailing NDJSON record of a sweep that failed after
// streaming began; its presence (any record with a non-empty "error") tells
// a client the stream is incomplete.
type SweepError struct {
	Error string `json:"error"`
}

// StatsResponse reports engine health: cache effectiveness and in-flight
// work.
type StatsResponse struct {
	CacheHits     uint64  `json:"cache_hits"`
	CacheMisses   uint64  `json:"cache_misses"`
	CacheHitRate  float64 `json:"cache_hit_rate"`
	CacheSize     int     `json:"cache_size"`
	CacheCapacity int     `json:"cache_capacity"`
	// InFlight counts simulations currently executing.
	InFlight int64 `json:"in_flight"`
	// SharedFlights counts requests that piggybacked on an identical
	// in-flight computation instead of starting their own.
	SharedFlights uint64 `json:"shared_flights"`
	// Completed counts simulations actually executed (cache misses that ran).
	Completed     uint64  `json:"completed"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// JobsActive counts /v2 sweep jobs currently running; the remaining job
	// counters accumulate over the server's lifetime.
	JobsActive    int    `json:"jobs_active"`
	JobsCompleted uint64 `json:"jobs_completed"`
	JobsCancelled uint64 `json:"jobs_cancelled"`
	JobsFailed    uint64 `json:"jobs_failed"`
	// PointsEvaluated counts grid points emitted by jobs (cached or not).
	PointsEvaluated uint64 `json:"points_evaluated"`

	// Kernel counters aggregate Monte-Carlo work across every endpoint:
	// total trials, their split into all-healthy, batch-screened and
	// matcher-decided trials, and the number of executed kernel chunks.
	KernelTrials             uint64 `json:"kernel_trials"`
	KernelAllHealthy         uint64 `json:"kernel_all_healthy"`
	KernelScreened           uint64 `json:"kernel_screened"`
	KernelMatcherInvocations uint64 `json:"kernel_matcher_invocations"`
	KernelChunks             uint64 `json:"kernel_chunks"`
	// KernelEarlyStops counts precision-targeted estimates that met their
	// epsilon before exhausting the trial budget.
	KernelEarlyStops uint64 `json:"kernel_early_stops"`

	// AdmissionWaits counts admissions through the engine's semaphore;
	// AdmissionWaitSecondsTotal sums the time they spent queued.
	AdmissionWaits            uint64  `json:"admission_waits"`
	AdmissionWaitSecondsTotal float64 `json:"admission_wait_seconds_total"`

	// JobResultBufferBytes is the encoded NDJSON held by finished jobs;
	// JobEvictions counts jobs evicted by the store's retention bounds.
	JobResultBufferBytes int64  `json:"job_result_buffer_bytes"`
	JobEvictions         uint64 `json:"job_evictions"`
	// StreamFlushes counts flushes of the sweep and job result streams:
	// one per committed run of records on a sweep, one per wake on a job
	// stream.
	StreamFlushes uint64 `json:"stream_flushes"`

	// JobStoreDiskBytes is the on-disk footprint of the durable job store
	// (0 when the store is in-memory).
	JobStoreDiskBytes int64 `json:"job_store_disk_bytes"`
	// Dispatch counters accumulate over the coordinator's lifetime; all zero
	// when distributed dispatch is not enabled.
	DispatchShardsLeased      uint64 `json:"dispatch_shards_leased"`
	DispatchShardsCompleted   uint64 `json:"dispatch_shards_completed"`
	DispatchShardsExpired     uint64 `json:"dispatch_shards_expired"`
	DispatchShardsQuarantined uint64 `json:"dispatch_shards_quarantined"`
	DispatchRetries           uint64 `json:"dispatch_retries"`
	// WorkersActive counts registered workers seen within the liveness window.
	WorkersActive int `json:"workers_active"`
}
