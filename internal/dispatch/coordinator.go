// Package dispatch shards validated sweep jobs across remote worker
// processes. The coordinator partitions a job's deterministic grid into
// contiguous, index-ordered point shards, leases them to registered workers
// with heartbeat-based expiry and at-least-once redispatch, and merges the
// returned records strictly in point order — so a distributed job's NDJSON
// stream is byte-identical to single-process execution at every cursor.
//
// The determinism argument: the chunk-seeded Monte-Carlo kernel makes every
// grid point a pure function of (scenario, runs, seed, epsilon), independent
// of worker count and host. A lease pins all of those — the forwarded
// request carries the coordinator-resolved run count — so any worker (or
// the same shard evaluated twice after a lease expiry) produces identical
// records, and merging shards in index order reproduces the local stream
// exactly.
package dispatch

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"dmfb/internal/service"
	"dmfb/internal/telemetry"
)

// Config tunes a Coordinator. The zero value gives sensible defaults.
type Config struct {
	// LeaseTTL is how long a shard lease lives without a heartbeat before
	// it is reclaimed and redispatched; 0 means 10s.
	LeaseTTL time.Duration
	// ShardSize is the number of grid points per shard; 0 means 64.
	ShardSize int
	// MaxShardDispatches bounds how many times one shard may be dispatched
	// (first lease included) before it is declared poisoned and its job
	// failed with service.ErrPoisonShard; 0 means 5. Without the bound, a
	// shard that crashes every worker that leases it would be redispatched
	// forever, burning the fleet on one unit of work.
	MaxShardDispatches int
	// Registry receives the dispatch series (shard counters, active-worker
	// gauge, shard duration histogram); nil leaves them unregistered.
	Registry *telemetry.Registry
	// Logger receives lease lifecycle events; nil discards them.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.ShardSize <= 0 {
		c.ShardSize = 64
	}
	if c.MaxShardDispatches <= 0 {
		c.MaxShardDispatches = 5
	}
	if c.Registry == nil {
		c.Registry = telemetry.NewRegistry()
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// errGone tags lease/job lookups whose target no longer exists (expired and
// redispatched, job finished or cancelled); the HTTP layer maps it to 410 so
// the worker knows to abandon the shard rather than retry.
var errGone = errors.New("dispatch: lease or job gone")

// errClosed refuses new jobs, and answers lease requests that find no work,
// once the coordinator is closed; the HTTP layer maps it to 503, which
// workers back off on.
var errClosed = errors.New("dispatch: coordinator is shut down")

// shardState is a shard's position in the lease state machine.
type shardState int

const (
	shardPending shardState = iota // waiting for a worker
	shardLeased                    // leased, heartbeats expected
	shardDone                      // results accepted, awaiting ordered merge
)

// shard is one contiguous slice [start, end) of a job's grid.
type shard struct {
	index      int // shard number within the job run
	start, end int // global grid-point indices
	state      shardState
	leaseID    string // current lease while shardLeased
	leasedAt   time.Time
	dispatches int                   // lease grants, for the poison budget
	records    []service.SweepRecord // buffered results until merged
}

// jobRun is one distributed job in flight: its shards plus the ordered-merge
// cursor. RunJob's goroutine is the only consumer; workers (via Submit) are
// the producers.
type jobRun struct {
	id       string
	req      service.SweepRequest // forwarded in every lease, runs resolved
	shards   []*shard
	nextEmit int           // first shard not yet merged
	ready    chan struct{} // 1-buffered doorbell: a mergeable shard exists or the job failed
	failed   error         // terminal quarantine diagnosis; stops leasing and RunJob
}

// lease is one outstanding shard lease.
type lease struct {
	id       string
	jobID    string
	shardIdx int
	workerID string
	expires  time.Time
}

// workerState tracks one registered worker for the active-worker gauge.
type workerState struct {
	name     string
	lastSeen time.Time
}

// Coordinator implements service.DistributedRunner over HTTP workers. Mount
// Routes() on the serving mux and pass the coordinator as the job store's
// Runner.
type Coordinator struct {
	cfg Config

	mu       sync.Mutex
	jobs     map[string]*jobRun
	jobOrder []string // FIFO fairness for lease assignment
	leases   map[string]*lease
	workers  map[string]*workerState
	seq      int // worker and lease ID sequence
	closed   bool
	// wake is the held-lease doorbell: closed and replaced (ringLocked)
	// whenever a lease request that found nothing might now find work — a
	// job registered, a shard re-pended — or the coordinator closed.
	wake chan struct{}

	shardsLeased      atomic.Uint64
	shardsCompleted   atomic.Uint64
	shardsExpired     atomic.Uint64
	shardsQuarantined atomic.Uint64
	retries           atomic.Uint64
	shardDuration     *telemetry.Histogram

	stopJanitor chan struct{}
	janitorDone chan struct{}
}

// shardDurationBuckets spans lease-to-merge times: cached shards finish in
// milliseconds, heavy Monte-Carlo shards in minutes.
var shardDurationBuckets = []float64{0.01, 0.05, 0.25, 1, 5, 30, 120}

// NewCoordinator builds a coordinator, registers its metric series, and
// starts the lease janitor.
func NewCoordinator(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:         cfg,
		jobs:        make(map[string]*jobRun),
		leases:      make(map[string]*lease),
		workers:     make(map[string]*workerState),
		wake:        make(chan struct{}),
		stopJanitor: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	r := cfg.Registry
	r.CounterFunc("dmfb_dispatch_shards_leased_total",
		"Shard leases handed to workers (redispatches included).",
		func() float64 { return float64(c.shardsLeased.Load()) })
	r.CounterFunc("dmfb_dispatch_shards_completed_total",
		"Shards whose results were accepted and merged.",
		func() float64 { return float64(c.shardsCompleted.Load()) })
	r.CounterFunc("dmfb_dispatch_shards_expired_total",
		"Shard leases reclaimed after missed heartbeats.",
		func() float64 { return float64(c.shardsExpired.Load()) })
	r.CounterFunc("dmfb_shards_quarantined_total",
		"Shards that exhausted their dispatch budget and failed their job as poisoned.",
		func() float64 { return float64(c.shardsQuarantined.Load()) })
	r.CounterFunc("dmfb_retries_total",
		"Shard redispatches: every lease grant of a shard past its first.",
		func() float64 { return float64(c.retries.Load()) })
	r.GaugeFunc("dmfb_workers_active",
		"Registered workers seen within the liveness window.",
		func() float64 { return float64(c.Stats().WorkersActive) })
	c.shardDuration = r.Histogram("dmfb_dispatch_shard_duration_seconds",
		"Wall time from shard lease to accepted result.", shardDurationBuckets)
	go c.janitor()
	return c
}

// Close stops the lease janitor and answers every held lease request: a
// request that finds no work on a closed coordinator gets errClosed (503)
// instead of waiting. Jobs still in RunJob keep draining (their shards just
// stop expiring); callers shut the job store down first.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.ringLocked()
	c.mu.Unlock()
	close(c.stopJanitor)
	<-c.janitorDone
}

// ringLocked wakes every held lease request to look for work again.
// Requires c.mu.
func (c *Coordinator) ringLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// janitor periodically reclaims expired leases so a worker that died
// mid-shard (process exit — no context to cancel) has its shard redispatched
// to a live worker.
func (c *Coordinator) janitor() {
	defer close(c.janitorDone)
	interval := c.cfg.LeaseTTL / 2
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.stopJanitor:
			return
		case <-t.C:
			c.expireLeases(time.Now())
		}
	}
}

// expireLeases reclaims every lease past its deadline, returning its shard
// to the pending pool for redispatch.
func (c *Coordinator) expireLeases(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	repended := false
	for id, l := range c.leases {
		if now.Before(l.expires) {
			continue
		}
		delete(c.leases, id)
		if jr := c.jobs[l.jobID]; jr != nil {
			sh := jr.shards[l.shardIdx]
			if sh.state == shardLeased && sh.leaseID == id {
				sh.state = shardPending
				sh.leaseID = ""
				repended = true
			}
		}
		c.shardsExpired.Add(1)
		c.cfg.Logger.Info("shard lease expired",
			slog.String("lease", id), slog.String("job", l.jobID),
			slog.Int("shard", l.shardIdx), slog.String("worker", l.workerID))
	}
	if repended {
		c.ringLocked()
	}
}

// RunJob implements service.DistributedRunner: it shards plan's points
// [start, NumPoints) for lease pickup and blocks merging results, emitting
// every record strictly in grid order. Each wake drains every consecutive
// finished shard at the merge cursor and emits their records as one run, so
// the job store commits them with one durable append. The forwarded request
// must already carry the resolved run count (the job store pins it from the
// plan).
func (c *Coordinator) RunJob(ctx context.Context, jobID string, plan *service.SweepPlan, req service.SweepRequest, start int, emit func([]service.SweepRecord) error) error {
	total := plan.NumPoints()
	if start < 0 || start > total {
		return fmt.Errorf("dispatch: resume point %d outside grid of %d points", start, total)
	}
	if start == total {
		return nil // nothing left to evaluate (resume found a complete log)
	}
	jr := &jobRun{
		id:    jobID,
		req:   req,
		ready: make(chan struct{}, 1),
	}
	for s := start; s < total; s += c.cfg.ShardSize {
		end := min(s+c.cfg.ShardSize, total)
		jr.shards = append(jr.shards, &shard{index: len(jr.shards), start: s, end: end})
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return errClosed
	}
	if _, dup := c.jobs[jobID]; dup {
		c.mu.Unlock()
		return fmt.Errorf("dispatch: job %s already dispatched", jobID)
	}
	c.jobs[jobID] = jr
	c.jobOrder = append(c.jobOrder, jobID)
	c.ringLocked()
	c.mu.Unlock()
	defer c.releaseJob(jobID)
	for {
		// Drain every consecutively-done shard from the merge cursor into
		// one run; the emit call (which fsyncs in a durable store) runs
		// outside the lock.
		c.mu.Lock()
		var run []service.SweepRecord
		for jr.nextEmit < len(jr.shards) && jr.shards[jr.nextEmit].state == shardDone {
			sh := jr.shards[jr.nextEmit]
			run = append(run, sh.records...)
			sh.records = nil
			jr.nextEmit++
		}
		finished := jr.nextEmit == len(jr.shards)
		failed := jr.failed
		c.mu.Unlock()
		if failed != nil {
			// A shard was quarantined: the job cannot complete. Records
			// already merged stay durable (they are correct); the terminal
			// diagnosis is the typed poison error.
			return failed
		}
		if len(run) > 0 {
			if err := emit(run); err != nil {
				return err
			}
		}
		if finished {
			return nil
		}
		select {
		case <-jr.ready:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// releaseJob forgets a job and every lease pointing at it; subsequent
// heartbeats and submissions for it answer 410.
func (c *Coordinator) releaseJob(jobID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.jobs, jobID)
	for i, id := range c.jobOrder {
		if id == jobID {
			c.jobOrder = append(c.jobOrder[:i], c.jobOrder[i+1:]...)
			break
		}
	}
	for id, l := range c.leases {
		if l.jobID == jobID {
			delete(c.leases, id)
		}
	}
}

// register assigns a worker ID.
func (c *Coordinator) register(name string) service.WorkerRegisterResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	id := fmt.Sprintf("worker-%d", c.seq)
	c.workers[id] = &workerState{name: name, lastSeen: time.Now()}
	c.cfg.Logger.Info("worker registered", slog.String("worker", id), slog.String("name", name))
	return service.WorkerRegisterResponse{
		WorkerID:       id,
		LeaseTTLMillis: c.cfg.LeaseTTL.Milliseconds(),
	}
}

// touchWorkerLocked records a sighting of workerID, implicitly
// (re-)registering IDs this coordinator has never seen — which is what lets
// a worker fleet survive a coordinator restart without re-registering.
// Requires c.mu.
func (c *Coordinator) touchWorkerLocked(workerID string) {
	if w := c.workers[workerID]; w != nil {
		w.lastSeen = time.Now()
		return
	}
	c.workers[workerID] = &workerState{lastSeen: time.Now()}
}

// leaseHold bounds how long a lease request waits for work before it is
// answered "no work": half the lease TTL, so a held worker is seen well
// inside its 3×TTL liveness window, and at most 10s, well inside a worker's
// 30s per-attempt timeout.
func leaseHold(ttl time.Duration) time.Duration { return min(ttl/2, 10*time.Second) }

// awaitLease is nextLease held open: when no shard is pending it waits for
// the doorbell and looks again, until it leases a shard, the hold bound
// passes or ctx ends (nil, nil: no work), or the coordinator is closed
// (errClosed).
func (c *Coordinator) awaitLease(ctx context.Context, workerID string) (*service.ShardLease, error) {
	hold := time.NewTimer(leaseHold(c.cfg.LeaseTTL))
	defer hold.Stop()
	for {
		if ctx.Err() != nil {
			return nil, nil // the worker hung up; lease nothing to it
		}
		c.mu.Lock()
		l := c.nextLeaseLocked(workerID)
		wake, closed := c.wake, c.closed
		c.mu.Unlock()
		switch {
		case l != nil:
			return l, nil
		case closed:
			return nil, errClosed
		}
		select {
		case <-wake:
		case <-hold.C:
			return nil, nil
		case <-ctx.Done():
			return nil, nil
		}
	}
}

// nextLease hands workerID the first pending shard in job-arrival order, or
// nil when no work is available.
func (c *Coordinator) nextLease(workerID string) *service.ShardLease {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nextLeaseLocked(workerID)
}

// nextLeaseLocked is nextLease under c.mu.
func (c *Coordinator) nextLeaseLocked(workerID string) *service.ShardLease {
	c.touchWorkerLocked(workerID)
jobLoop:
	for _, jid := range c.jobOrder {
		jr := c.jobs[jid]
		if jr.failed != nil {
			continue // quarantined job: stop feeding it to workers
		}
		for _, sh := range jr.shards {
			if sh.state != shardPending {
				continue
			}
			if sh.dispatches >= c.cfg.MaxShardDispatches {
				// The shard burned its whole dispatch budget — every worker
				// that leased it crashed, stalled, or submitted garbage.
				// Quarantine: fail the job with a typed diagnosis instead of
				// redispatching forever.
				jr.failed = fmt.Errorf("%w: shard %d (points [%d,%d)) failed %d dispatches",
					service.ErrPoisonShard, sh.index, sh.start, sh.end, sh.dispatches)
				c.shardsQuarantined.Add(1)
				c.cfg.Logger.Error("shard quarantined",
					slog.String("job", jid), slog.Int("shard", sh.index),
					slog.Int("dispatches", sh.dispatches))
				select {
				case jr.ready <- struct{}{}:
				default:
				}
				continue jobLoop // the job is failing; try the next job's shards
			}
			c.seq++
			id := fmt.Sprintf("lease-%d", c.seq)
			now := time.Now()
			sh.state = shardLeased
			sh.leaseID = id
			sh.leasedAt = now
			sh.dispatches++
			if sh.dispatches > 1 {
				c.retries.Add(1)
			}
			c.leases[id] = &lease{
				id: id, jobID: jid, shardIdx: sh.index,
				workerID: workerID, expires: now.Add(c.cfg.LeaseTTL),
			}
			c.shardsLeased.Add(1)
			c.cfg.Logger.Info("shard leased",
				slog.String("lease", id), slog.String("job", jid),
				slog.Int("shard", sh.index), slog.String("worker", workerID),
				slog.Int("start", sh.start), slog.Int("end", sh.end))
			return &service.ShardLease{
				LeaseID:   id,
				JobID:     jid,
				Shard:     sh.index,
				Start:     sh.start,
				End:       sh.end,
				Request:   jr.req,
				TTLMillis: c.cfg.LeaseTTL.Milliseconds(),
			}
		}
	}
	return nil
}

// heartbeat renews a lease; errGone means the lease no longer exists and the
// worker should abandon the shard.
func (c *Coordinator) heartbeat(workerID, leaseID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touchWorkerLocked(workerID)
	l, ok := c.leases[leaseID]
	if !ok {
		return fmt.Errorf("%w: lease %q", errGone, leaseID)
	}
	l.expires = time.Now().Add(c.cfg.LeaseTTL)
	return nil
}

// submit accepts a completed shard's records. Acceptance is first-wins and
// independent of lease validity: the kernel is deterministic, so a late
// submission from an expired lease carries exactly the records a redispatch
// would produce. The loser of the race gets errGone (410) — its records are
// fully discarded, never merged alongside the winner's — which workers treat
// as benign (the shard is finished either way).
func (c *Coordinator) submit(req service.ShardResultRequest) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touchWorkerLocked(req.WorkerID)
	jr := c.jobs[req.JobID]
	if jr == nil {
		return fmt.Errorf("%w: job %q", errGone, req.JobID)
	}
	if req.Shard < 0 || req.Shard >= len(jr.shards) {
		return fmt.Errorf("dispatch: job %s has no shard %d", req.JobID, req.Shard)
	}
	sh := jr.shards[req.Shard]
	if sh.state == shardDone {
		return fmt.Errorf("%w: shard %d of %s already completed by a twin; submission discarded",
			errGone, req.Shard, req.JobID)
	}
	if got, want := len(req.Records), sh.end-sh.start; got != want {
		return fmt.Errorf("dispatch: shard %d of %s wants %d records, got %d", req.Shard, req.JobID, want, got)
	}
	for i := range req.Records {
		if req.Records[i].Index != sh.start+i {
			return fmt.Errorf("dispatch: shard %d of %s record %d has index %d, want %d",
				req.Shard, req.JobID, i, req.Records[i].Index, sh.start+i)
		}
		// Cache provenance is a worker-local accident (a redispatched shard
		// hits the worker's cache; a twin's doesn't). Normalize it away so the
		// merged stream matches a fresh single-process run byte for byte.
		req.Records[i].Cached = false
	}
	if sh.leaseID != "" {
		delete(c.leases, sh.leaseID)
		sh.leaseID = ""
	}
	sh.records = req.Records
	sh.state = shardDone
	c.shardsCompleted.Add(1)
	if !sh.leasedAt.IsZero() {
		c.shardDuration.Observe(time.Since(sh.leasedAt).Seconds())
	}
	select {
	case jr.ready <- struct{}{}:
	default:
	}
	return nil
}

// activeWindow is how long after its last sighting a worker still counts as
// active.
func (c *Coordinator) activeWindow() time.Duration { return 3 * c.cfg.LeaseTTL }

// Stats is a snapshot of a coordinator's lifetime shard and worker
// accounting: the values its /metrics series report.
type Stats struct {
	// ShardsLeased counts leases handed to workers (redispatches included).
	ShardsLeased uint64
	// ShardsCompleted counts shards whose results were accepted and merged.
	ShardsCompleted uint64
	// ShardsExpired counts leases reclaimed after missed heartbeats.
	ShardsExpired uint64
	// ShardsQuarantined counts shards that exhausted their dispatch budget
	// and terminated their job with service.ErrPoisonShard.
	ShardsQuarantined uint64
	// Retries counts shard redispatches: every lease grant of a shard past
	// its first (expiry reclaims and rejected submissions both cause these).
	Retries uint64
	// WorkersActive counts workers seen within the liveness window.
	WorkersActive int
}

// Stats snapshots the coordinator's accounting.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	active := 0
	cutoff := time.Now().Add(-c.activeWindow())
	for _, w := range c.workers {
		if w.lastSeen.After(cutoff) {
			active++
		}
	}
	c.mu.Unlock()
	return Stats{
		ShardsLeased:      c.shardsLeased.Load(),
		ShardsCompleted:   c.shardsCompleted.Load(),
		ShardsExpired:     c.shardsExpired.Load(),
		ShardsQuarantined: c.shardsQuarantined.Load(),
		Retries:           c.retries.Load(),
		WorkersActive:     active,
	}
}

// Coordinator must satisfy the runner interface the job store consumes.
var _ service.DistributedRunner = (*Coordinator)(nil)
