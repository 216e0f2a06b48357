package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dmfb/internal/faultinject"
	"dmfb/internal/telemetry"
)

// ErrJobNotFound tags lookups of unknown job IDs so handlers can map them to
// HTTP 404.
var ErrJobNotFound = errors.New("job not found")

// ErrTooManyJobs tags job creation attempts rejected because the store is
// full of jobs still running or saving their terminal state; handlers map it
// to HTTP 429.
var ErrTooManyJobs = errors.New("too many jobs")

// ErrNotReady tags requests that arrived while the durable store is still
// replaying its on-disk jobs; handlers (and the readiness probe) map it to
// HTTP 503 so clients and load balancers retry elsewhere.
var ErrNotReady = errors.New("job store not ready")

// errStoreClosed rejects job creation during shutdown; handlers map it to
// HTTP 503 like any other unavailability.
var errStoreClosed = errors.New("service: job store is shut down")

// errStorage tags job failures caused by the durable backend (failed write,
// failed fsync, out of disk) rather than by evaluation; such jobs terminate
// with Reason ReasonStorage instead of wedging the store.
var errStorage = errors.New("storage failure")

// Terminal failure reasons, surfaced in JobStatus.Reason and the durable
// manifest alongside State=="failed". Clients that need to distinguish
// retry-worthy failures from poisoned inputs switch on this field; see
// API.md for the full taxonomy.
const (
	// ReasonEvaluation: the sweep itself failed (bad request surviving
	// validation, engine error). Retrying the same request will likely fail
	// again.
	ReasonEvaluation = "evaluation"
	// ReasonStorage: the durable backend could not commit results (I/O
	// error, no space, corruption detected on replay or at a replayed job's
	// first read). The computation was fine; retry after the operator fixes
	// the disk.
	ReasonStorage = "storage"
	// ReasonPoisonShard: a distributed shard exhausted its dispatch budget
	// (every worker that leased it crashed or failed). The job is quarantined
	// rather than redispatched forever.
	ReasonPoisonShard = "poison_shard"
)

// JobState names a sweep job's lifecycle phase.
type JobState string

// The four job states. Jobs start running immediately (the engine's
// admission semaphore is what actually paces simulation work) and end in
// exactly one of the three terminal states.
const (
	JobRunning   JobState = "running"
	JobCompleted JobState = "completed"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// terminal reports whether the state is final.
func (s JobState) terminal() bool { return s != JobRunning }

// JobStatus is the wire form of a job snapshot, returned by POST /v2/jobs,
// GET /v2/jobs/{id}, and DELETE /v2/jobs/{id}.
type JobStatus struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	// TotalPoints is the size of the job's grid; PointsDone counts emitted
	// records, so PointsDone == TotalPoints iff the job completed.
	TotalPoints int       `json:"total_points"`
	PointsDone  int       `json:"points_done"`
	CreatedAt   time.Time `json:"created_at"`
	// FinishedAt is set once the job reaches a terminal state.
	FinishedAt *time.Time `json:"finished_at,omitempty"`
	// Error describes why a failed job stopped.
	Error string `json:"error,omitempty"`
	// Reason classifies a failed job's terminal cause ("evaluation",
	// "storage", "poison_shard"); empty for non-failed jobs.
	Reason string `json:"reason,omitempty"`
	// Distributed reports whether the job is sharded across remote workers.
	Distributed bool `json:"distributed,omitempty"`
}

// JobStoreConfig tunes a job store. The zero value gives sensible defaults.
type JobStoreConfig struct {
	// MaxJobs bounds the jobs retained (running and finished combined);
	// 0 means 128. Creating a job beyond the bound evicts the oldest
	// settled job by creation (ID) order, before and after a restart
	// alike — a finished job whose terminal state is saved —
	// including its on-disk artifacts in a durable store, or fails with
	// ErrTooManyJobs if every retained job is still running or saving its
	// terminal state.
	MaxJobs int
	// MaxResultBytes bounds the encoded result bytes of finished jobs,
	// whether in memory or, for a job replayed by a durable store, still in
	// its sealed log awaiting a first read; 0 means 64 MiB. In memory a
	// finished job holds exactly these bytes, in one buffer of its records
	// (plus one offset per record), and nothing of its plan. When a
	// settling job pushes the total over the bound, the oldest settled
	// jobs are evicted (running jobs never are), so a flood of cheap
	// huge-grid jobs cannot pin unbounded heap — or, durably, unbounded
	// disk.
	MaxResultBytes int64
	// Runner executes jobs that request distributed mode by sharding them
	// across remote workers. nil rejects distributed jobs with a 400.
	Runner DistributedRunner
	// Inject supplies a chaos fault schedule to the durable backend (torn
	// writes, fsync failures, ENOSPC, replay corruption). nil — the default
	// and the production setting — disables injection entirely.
	Inject *faultinject.Injector
}

// Store is the job store the handlers and server run against: the
// lifecycle of asynchronous sweep jobs — creation (validated by the
// engine's sweep planner), execution (one goroutine per job, locally
// through the engine's cache/single-flight/admission layers or remotely
// through a DistributedRunner), result buffering for cursor-resumable
// streaming, cancellation, and shutdown draining — over a pluggable
// persistence backend. NewJobStore builds it in memory, NewFileJobStore
// durably: with the file backend every committed run of result lines is
// fsynced before it becomes readable, and a restarted store replays
// finished jobs and resumes partial ones at their first missing grid point
// instead of recomputing.
type Store struct {
	engine   *Engine
	maxJobs  int
	maxBytes int64
	persist  jobPersister
	runner   DistributedRunner

	mu            sync.Mutex
	jobs          map[string]*Job
	order         []string // creation order, for bounded eviction
	seq           int
	pending       int // jobs reserved by a Create still saving their manifest; they count toward maxJobs
	closed        bool
	finishedBytes int64 // encoded result bytes of settled jobs, in memory or on disk

	ready atomic.Bool // false until any durable replay completes

	baseCtx   context.Context
	cancelAll context.CancelFunc
	wg        sync.WaitGroup

	active    atomic.Int64 // jobs registered and not yet terminal
	completed atomic.Uint64
	cancelled atomic.Uint64
	failed    atomic.Uint64
	points    atomic.Uint64
}

// newStore builds the orchestrator around a persistence backend and
// registers the job lifecycle series on e's metric registry.
func newStore(e *Engine, cfg JobStoreConfig, persist jobPersister) *Store {
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 128
	}
	if cfg.MaxResultBytes <= 0 {
		cfg.MaxResultBytes = 64 << 20
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Store{
		engine:    e,
		maxJobs:   cfg.MaxJobs,
		maxBytes:  cfg.MaxResultBytes,
		persist:   persist,
		runner:    cfg.Runner,
		jobs:      make(map[string]*Job),
		baseCtx:   ctx,
		cancelAll: cancel,
	}
	// Callback series read the store's existing accounting at scrape time.
	// The registry get-or-creates by name, so a second store on the same
	// engine (e.g. NewMux's private fallback store) leaves the first store's
	// series in place rather than double-registering.
	r := e.Registry()
	r.GaugeFunc("dmfb_jobs_active",
		"Sweep jobs currently running.",
		func() float64 { return float64(s.active.Load()) })
	r.CounterFunc("dmfb_jobs_completed_total",
		"Sweep jobs that finished every grid point.",
		func() float64 { return float64(s.completed.Load()) })
	r.CounterFunc("dmfb_jobs_cancelled_total",
		"Sweep jobs cancelled before completion.",
		func() float64 { return float64(s.cancelled.Load()) })
	r.CounterFunc("dmfb_jobs_failed_total",
		"Sweep jobs that stopped on an evaluation error.",
		func() float64 { return float64(s.failed.Load()) })
	r.CounterFunc("dmfb_job_points_evaluated_total",
		"Grid points emitted by sweep jobs (cached or simulated).",
		func() float64 { return float64(s.points.Load()) })
	r.GaugeFunc("dmfb_job_result_buffer_bytes",
		"Encoded NDJSON result bytes of finished jobs, in memory (one exact buffer of its records per job, nothing of its plan) or in a sealed log awaiting a first read.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.finishedBytes)
		})
	return s
}

// NewJobStore builds the in-memory store executing jobs on e. Results live
// only in process memory: a restart forgets every job.
func NewJobStore(e *Engine, cfg JobStoreConfig) *Store {
	s := newStore(e, cfg, nullPersister{})
	s.ready.Store(true)
	return s
}

// NewFileJobStore builds the durable store rooted at dir: every job's
// manifest and result log live on disk (one fsync per committed run of
// records), and construction replays the directory in the background —
// finished jobs become readable again, partial jobs resume evaluation at their first
// missing grid point. Replay verifies every finished job's log but keeps
// only its record count and CRC chain: the lines load on the job's first
// read, checked against those. Until the replay scan completes, Ready
// reports false and Create/Get return ErrNotReady (HTTP 503).
func NewFileJobStore(e *Engine, cfg JobStoreConfig, dir string) (*Store, error) {
	return newFileJobStore(e, cfg, dir, nil)
}

// newFileJobStore is NewFileJobStore with a test hook: a non-nil gate delays
// the replay scan until the channel closes, letting tests observe the
// not-ready window deterministically.
func newFileJobStore(e *Engine, cfg JobStoreConfig, dir string, gate chan struct{}) (*Store, error) {
	p, err := newFilePersister(dir)
	if err != nil {
		return nil, err
	}
	p.inject = cfg.Inject
	s := newStore(e, cfg, p)
	e.Registry().GaugeFunc("dmfb_job_store_disk_bytes",
		"Bytes held on disk by the durable job store (manifests and result logs).",
		func() float64 { return float64(s.DiskBytes()) })
	var replayed atomic.Int64 // nanoseconds
	e.Registry().GaugeFunc("dmfb_job_store_replay_seconds",
		"Seconds the durable job store took to replay its directory at start-up; 0 until the replay completes.",
		func() float64 { return time.Duration(replayed.Load()).Seconds() })
	go func() {
		if gate != nil {
			<-gate
		}
		replayed.Store(int64(s.replay()))
	}()
	return s, nil
}

// replay recovers the durable backend's jobs: terminal jobs become readable
// (their lines load on the first read), running jobs are re-planned and
// resumed at the first grid point missing from their result log. It runs
// once, in the background, before the store reports ready, and returns how
// long it took.
func (s *Store) replay() time.Duration {
	start := time.Now()
	defer s.ready.Store(true)
	pjobs, err := s.persist.load()
	if err != nil {
		s.logger().Error("job store replay failed; starting empty",
			slog.String("error", err.Error()))
		return time.Since(start)
	}
	type resume struct {
		j   *Job
		ctx context.Context
	}
	var resumes []resume
	s.mu.Lock()
	for _, pj := range pjobs {
		m := pj.manifest
		if s.closed || s.jobs[m.ID] != nil {
			continue
		}
		j := &Job{
			id:          m.ID,
			store:       s,
			req:         m.Request,
			distributed: m.Request.Distributed,
			totalPoints: m.TotalPoints,
			res:         pj.res,
			bytes:       pj.log.payloadBytes(),
			state:       m.State,
			errMsg:      m.Error,
			reason:      m.Reason,
			created:     m.CreatedAt,
			done:        make(chan struct{}),
			update:      make(chan struct{}),
		}
		if seq := jobSeq(m.ID); seq > s.seq {
			s.seq = seq
		}
		s.addLocked(j)
		if m.State.terminal() {
			if m.FinishedAt != nil {
				j.finished = *m.FinishedAt
			} else {
				j.finished = m.CreatedAt
			}
			if pj.log.records > 0 {
				j.onDisk = &pj.log // loaded on the first read
			}
			j.update = closedUpdate
			s.settleLocked(j)
			continue
		}
		// A job found running was interrupted by a crash or restart:
		// resume it. Re-planning can fail if the server's limits changed or
		// distributed mode lost its runner; such jobs fail cleanly rather
		// than recompute under different rules.
		j.resumeFrom = pj.res.count()
		plan, perr := s.engine.PlanSweep(m.Request)
		switch {
		case perr != nil:
			perr = fmt.Errorf("resume after restart: %w", perr)
		case m.Request.Distributed && s.runner == nil:
			perr = errors.New("resume after restart: job is distributed but dispatch is not enabled")
		case pj.res.count() > plan.NumPoints():
			perr = fmt.Errorf("resume after restart: result log has %d records for a %d-point grid", pj.res.count(), plan.NumPoints())
		}
		if perr != nil {
			j.state = JobFailed
			j.errMsg = perr.Error()
			j.reason = ReasonEvaluation
			j.finished = time.Now()
			j.res = j.res.exact()
			j.update = closedUpdate
			s.failed.Add(1)
			s.persistTerminal(j)
			s.settleLocked(j)
			continue
		}
		j.plan = plan
		jobCtx, cancel := context.WithCancel(s.baseCtx)
		j.cancel = cancel
		s.wg.Add(1)
		s.active.Add(1)
		resumes = append(resumes, resume{j: j, ctx: jobCtx})
	}
	// Retention must hold across restarts: evict oldest settled jobs (and
	// their disk artifacts) until both bounds are satisfied again.
	evicted := s.evictOverBoundsLocked(nil)
	s.mu.Unlock()
	s.removeEvicted(evicted...)
	for _, r := range resumes {
		s.logger().Info("resuming interrupted job",
			slog.String("job", r.j.id), slog.Int("from_point", r.j.resumeFrom))
		go r.j.run(r.ctx)
	}
	logs, verified := 0, int64(0)
	for _, pj := range pjobs {
		if pj.logBytes > 0 {
			logs++
			verified += pj.logBytes
		}
	}
	elapsed := time.Since(start)
	s.logger().Info("job store replayed",
		slog.Int("jobs", len(pjobs)),
		slog.Int("logs_scanned", logs),
		slog.Int64("bytes_verified", verified),
		slog.Float64("duration_ms", float64(elapsed.Microseconds())/1000))
	return elapsed
}

// logger returns the engine's logger, or a discard logger when unset.
func (s *Store) logger() *slog.Logger {
	if s.engine.logger != nil {
		return s.engine.logger
	}
	return slog.New(slog.DiscardHandler)
}

// Job is one asynchronous sweep: a validated plan plus an append-only
// buffer of encoded NDJSON result lines. Lines are encoded exactly once,
// when the point completes, so every read of the same range returns
// identical bytes — the property that makes interrupted streams resumable
// without re-simulation. With a durable store each committed run of lines
// is additionally fsynced to the job's result log before it becomes
// visible, so the buffer survives a coordinator restart. Once the job
// settles it holds its records' bytes in one exact buffer and drops its
// plan, its encoder and its context.
type Job struct {
	id          string
	store       *Store
	plan        *SweepPlan // nil once the job settles; only run reads it
	req         SweepRequest
	distributed bool
	totalPoints int
	resumeFrom  int                // grid points already on disk when this run started
	cancel      context.CancelFunc // nil once run ends; guarded by mu
	done        chan struct{}      // closed when the job settles
	settled     bool               // terminal state saved, bytes accounted; guarded by store.mu
	// enc encodes committed records into next, the committer's working
	// copy of res; only commit uses them, and settling drops them.
	enc  *json.Encoder
	next resultBuf

	mu  sync.Mutex
	res resultBuf
	// bytes is the total encoded bytes in res, or in onDisk's records.
	// Final once the job is terminal, except that a demotion, which holds
	// store.mu, zeroes it; the store's account reads it under store.mu.
	bytes      int64
	state      JobState
	errMsg     string
	reason     string // terminal failure classification (Reason* constants)
	created    time.Time
	finished   time.Time
	userCancel bool          // cancelled by a client, not by store shutdown
	update     chan struct{} // closed and replaced on every append/transition; closedUpdate once terminal
	// onDisk is set while a replayed finished job's lines are still only
	// in its result log: the prefix replay kept, to which the first read
	// seals the log before the lines are published. nil once they are in
	// res (or the read failed).
	onDisk   *logPrefix
	loadOnce sync.Once // the first read's load, shared by concurrent readers
}

// resultBuf is a job's result records: their encoded NDJSON lines back to
// back in one buffer, and each record's end offset in it. Both only grow;
// a reader that copied the two slice headers owns an immutable prefix.
type resultBuf struct {
	buf  []byte
	ends []int // record i is buf[start(i):ends[i]]
}

// count is the number of records.
func (r resultBuf) count() int { return len(r.ends) }

// start is the offset at which record i begins.
func (r resultBuf) start(i int) int {
	if i == 0 {
		return 0
	}
	return r.ends[i-1]
}

// line is record i's encoded line, trailing newline included.
func (r resultBuf) line(i int) []byte { return r.buf[r.start(i):r.ends[i]] }

// Write appends p to the buffer, so a json.Encoder encodes straight into it.
func (r *resultBuf) Write(p []byte) (int, error) {
	r.buf = append(r.buf, p...)
	return len(p), nil
}

// exact returns r with no spare capacity, copying it only if it has some.
func (r resultBuf) exact() resultBuf {
	if cap(r.buf) > len(r.buf) {
		r.buf = append(make([]byte, 0, len(r.buf)), r.buf...)
	}
	if cap(r.ends) > len(r.ends) {
		r.ends = append(make([]int, 0, len(r.ends)), r.ends...)
	}
	return r
}

// Create validates req through the engine's sweep planner, registers a new
// job, and starts evaluating it in the background. Validation failures
// surface as ErrInvalidRequest exactly like a synchronous /v1/sweep. A
// request with distributed mode set requires a configured DistributedRunner.
//
// The job's execution context derives from the store (so shutdown cancels
// it), but it inherits the trace ID of the creating request's ctx: kernel
// chunk spans evaluated by the job name the POST /v2/jobs request that
// started it, long after that request returned 202.
func (s *Store) Create(ctx context.Context, req SweepRequest) (*Job, error) {
	if !s.ready.Load() {
		return nil, fmt.Errorf("%w: replaying the durable store", ErrNotReady)
	}
	if req.Distributed && s.runner == nil {
		return nil, invalidf("distributed mode requested but dispatch is not enabled on this server")
	}
	plan, err := s.engine.PlanSweep(req)
	if err != nil {
		return nil, err
	}
	traceID := telemetry.TraceID(ctx)
	id, err := s.reserve()
	if err != nil {
		return nil, err
	}
	j := &Job{
		id:          id,
		store:       s,
		plan:        plan,
		req:         req,
		distributed: req.Distributed,
		totalPoints: plan.NumPoints(),
		done:        make(chan struct{}),
		state:       JobRunning,
		created:     time.Now(),
		update:      make(chan struct{}),
	}
	// The manifest is the durable birth certificate: it must exist before
	// any result line, or a crash between the two leaves an orphan log. It
	// is saved outside the store lock, so its fsyncs hold up no Get, Ready
	// or other Create; the reservation holds the job's place meanwhile.
	if err := s.persist.saveManifest(j.manifest()); err != nil {
		s.mu.Lock()
		s.pending--
		s.order = slices.DeleteFunc(s.order, func(id string) bool { return id == j.id })
		s.mu.Unlock()
		s.wg.Done()
		s.engine.metrics.storeWriteErrors.Inc()
		return nil, fmt.Errorf("service: persist job manifest: %w", err)
	}
	// Were the store closed meanwhile, jobCtx is already cancelled: the job
	// stops at once and stays durably "running", for the next store to
	// resume, like any job interrupted by shutdown.
	jobCtx, cancel := context.WithCancel(s.baseCtx)
	j.cancel = cancel
	s.active.Add(1)
	s.mu.Lock()
	s.pending--
	s.jobs[j.id] = j // its place in s.order was taken by reserve
	s.mu.Unlock()
	go j.run(telemetry.WithTraceID(jobCtx, traceID))
	return j, nil
}

// reserve books a new job under the store lock: its ID, its place in the
// eviction order, a place toward MaxJobs (evicting the oldest settled job if
// the store is full) and its share of the shutdown drain. The caller
// registers the job or, failing to save its manifest, releases the place,
// the order entry and the drain share.
func (s *Store) reserve() (string, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return "", errStoreClosed
	}
	evicted := ""
	if len(s.jobs)+s.pending >= s.maxJobs {
		if evicted = s.evictOldestLocked(nil); evicted == "" {
			n := len(s.jobs) + s.pending
			s.mu.Unlock()
			return "", fmt.Errorf("%w: %d jobs running, retention cap %d", ErrTooManyJobs, n, s.maxJobs)
		}
	}
	s.seq++
	id := fmt.Sprintf("job-%d", s.seq)
	s.order = append(s.order, id)
	s.pending++
	s.wg.Add(1)
	s.mu.Unlock()
	s.removeEvicted(evicted)
	return id, nil
}

// manifest snapshots the job for the durable backend. Callers may hold
// either s.mu or j.mu but not need both: every field read here is immutable
// after creation except state/error/finished, which only the job's own
// goroutine writes.
func (j *Job) manifest() jobManifest {
	m := jobManifest{
		ID:          j.id,
		State:       j.state,
		Error:       j.errMsg,
		Reason:      j.reason,
		TotalPoints: j.totalPoints,
		CreatedAt:   j.created,
		Request:     j.req,
	}
	if j.state.terminal() {
		fin := j.finished
		m.FinishedAt = &fin
	}
	return m
}

// persistTerminal records a job's terminal state in the durable backend and
// releases its result-log handle.
func (s *Store) persistTerminal(j *Job) {
	j.mu.Lock()
	m := j.manifest()
	j.mu.Unlock()
	if err := s.persist.saveManifest(m); err != nil {
		s.engine.metrics.storeWriteErrors.Inc()
		s.logger().Error("persist terminal job state",
			slog.String("job", j.id), slog.String("error", err.Error()))
	}
	s.persist.finishResults(j.id)
}

// addLocked registers j as the store's newest job. Requires s.mu.
func (s *Store) addLocked(j *Job) {
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
}

// settleLocked books a job whose terminal state is saved: its bytes join the
// finished-bytes account, it becomes evictable, and Wait and Cancel return.
// Requires s.mu.
func (s *Store) settleLocked(j *Job) {
	s.finishedBytes += j.bytes
	j.settled = true
	close(j.done)
}

// overBoundsLocked reports whether the store holds more jobs or finished
// result bytes than its retention bounds allow. Requires s.mu.
func (s *Store) overBoundsLocked() bool {
	return len(s.jobs) > s.maxJobs || s.finishedBytes > s.maxBytes
}

// evictOldestLocked detaches the oldest settled job other than keep from
// the store and returns its ID, or "" if there is none. Jobs are ordered by
// creation (ID), live and after a replay alike; an ID still reserved by a
// Create saving its manifest is skipped. Only a settled job is evictable:
// evicted before its terminal save, the save would bring its directory
// back. Settled, it is saved no more, so the caller removes its durable
// artifacts with removeEvicted once it has let go of s.mu, and no reader
// waits behind the persister's fsyncs. Requires s.mu.
func (s *Store) evictOldestLocked(keep *Job) string {
	for i, id := range s.order {
		j, ok := s.jobs[id]
		if !ok || !j.settled || j == keep {
			continue
		}
		delete(s.jobs, id)
		s.order = append(s.order[:i], s.order[i+1:]...)
		s.finishedBytes -= j.bytes
		s.engine.metrics.jobEvictions.Inc()
		return id
	}
	return ""
}

// evictOverBoundsLocked detaches the oldest settled jobs other than keep
// until the store is within its retention bounds, or none is left to
// evict, and returns their IDs for removeEvicted. Requires s.mu.
func (s *Store) evictOverBoundsLocked(keep *Job) []string {
	var evicted []string
	for s.overBoundsLocked() {
		id := s.evictOldestLocked(keep)
		if id == "" {
			break
		}
		evicted = append(evicted, id)
	}
	return evicted
}

// removeEvicted removes the durable artifacts of jobs evictOldestLocked
// detached. An empty ID (nothing evicted) is skipped. Must not hold s.mu.
func (s *Store) removeEvicted(ids ...string) {
	for _, id := range ids {
		if id == "" {
			continue
		}
		if err := s.persist.remove(id); err != nil {
			s.logger().Error("remove evicted job artifacts",
				slog.String("job", id), slog.String("error", err.Error()))
		}
	}
}

// Get returns the job with the given ID.
func (s *Store) Get(id string) (*Job, error) {
	if !s.ready.Load() {
		return nil, fmt.Errorf("%w: replaying the durable store", ErrNotReady)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrJobNotFound, id)
	}
	return j, nil
}

// DiskBytes returns the bytes held on disk by the durable backend (0 for
// the in-memory store) — the dmfb_job_store_disk_bytes gauge.
func (s *Store) DiskBytes() int64 {
	return s.persist.diskBytes()
}

// Ready reports whether the store accepts work: any durable replay has
// completed and shutdown has not begun.
func (s *Store) Ready() bool {
	if !s.ready.Load() {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.closed
}

// Close cancels every running job and waits for all job goroutines to exit
// (or ctx to expire). After Close, Create fails and Ready reports false;
// finished results remain readable until the process exits. With a durable
// store, jobs interrupted by shutdown keep their on-disk state "running":
// the next store on the same directory resumes them where they stopped —
// client-requested cancellations stay cancelled.
func (s *Store) Close(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cancelAll()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.persist.close()
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: job drain: %w", ctx.Err())
	}
}

// crashForTest simulates a SIGKILL of the coordinator: persistence stops
// mid-flight (no terminal states are written), running jobs are aborted,
// and file handles are released so a new store can be opened on the same
// directory. Only meaningful with a durable backend; tests use it to assert
// restart-resume semantics without spawning processes.
func (s *Store) crashForTest() {
	if fp, ok := s.persist.(*filePersister); ok {
		fp.crashForTest()
	}
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cancelAll()
	s.wg.Wait()
}

// run executes the job's sweep — locally through the engine, or sharded
// across workers through the store's runner — committing the encoded NDJSON
// lines of its points, and records the terminal state. Both hand over
// contiguous runs of records: the local sweep every record committed while
// the previous run was being appended, the distributed runner every record
// its merge drained in one wake. Each run is committed with a single
// durable append.
func (j *Job) run(ctx context.Context) {
	defer j.store.wg.Done()
	var err error
	if j.distributed {
		// Workers resolve nothing themselves: the forwarded request pins
		// the run count the coordinator's planner resolved, so a worker
		// with different engine defaults still computes identical records.
		req := j.req
		req.Runs = j.plan.SimParams().Runs
		err = j.store.runner.RunJob(ctx, j.id, j.plan, req, j.resumeFrom, j.commit)
	} else {
		err = j.store.engine.RunSweepRange(ctx, j.plan, j.resumeFrom, j.plan.NumPoints(), j.commit)
	}
	j.mu.Lock()
	switch {
	case err == nil:
		j.state = JobCompleted
		j.store.completed.Add(1)
	case ctx.Err() != nil:
		j.state = JobCancelled
		j.store.cancelled.Add(1)
	default:
		j.state = JobFailed
		j.errMsg = err.Error()
		switch {
		case errors.Is(err, errStorage):
			j.reason = ReasonStorage
		case errors.Is(err, ErrPoisonShard):
			j.reason = ReasonPoisonShard
		default:
			j.reason = ReasonEvaluation
		}
		j.store.failed.Add(1)
	}
	j.store.active.Add(-1)
	j.finished = time.Now()
	j.store.engine.metrics.jobDuration.Observe(j.finished.Sub(j.created).Seconds())
	j.bumpLocked()
	shutdownCancelled := j.state == JobCancelled && !j.userCancel
	cancel := j.cancel
	j.cancel = nil
	j.mu.Unlock()
	// The job is over: release its context from the store's, and keep of
	// it only what it serves. commit no longer writes res, so it is read
	// here unlocked and copied outside the lock.
	cancel()
	res := j.res.exact()
	j.mu.Lock()
	j.res = res
	j.mu.Unlock()
	j.plan, j.enc, j.next = nil, nil, resultBuf{}
	s := j.store
	if shutdownCancelled && s.isClosed() {
		// Interrupted by store shutdown, not by a client: leave the durable
		// state "running" so the next store resumes instead of recording a
		// cancellation the user never asked for. Release the log handle only.
		s.persist.finishResults(j.id)
	} else {
		s.persistTerminal(j)
	}
	// Settled, the job may push a bound over: evict the oldest others, so a
	// job that alone exceeds the byte bound survives until the next settles.
	s.mu.Lock()
	s.settleLocked(j)
	evicted := s.evictOverBoundsLocked(j)
	s.mu.Unlock()
	s.removeEvicted(evicted...)
}

// commit appends a contiguous run of records, in grid order, to the job:
// each record is encoded exactly once, the run is persisted with one durable
// append, and only then are its lines published to streams with a single
// wake. A failed append publishes none of them.
func (j *Job) commit(recs []SweepRecord) error {
	// Commits come one at a time, in index order, and nothing else writes
	// j.res while the job runs, so it reads it unlocked. The run is encoded
	// into its spare capacity, past the length any reader holds, and
	// becomes visible when j.res is swapped below. A json.Encoder writes
	// exactly json.Marshal's bytes plus the newline.
	if j.enc == nil {
		j.enc = json.NewEncoder(&j.next)
	}
	j.next = j.res
	from := j.res.count()
	for i := range recs {
		if err := j.enc.Encode(&recs[i]); err != nil {
			return err
		}
		j.next.ends = append(j.next.ends, len(j.next.buf))
	}
	if err := j.store.persist.appendResult(j.id, j.next, from); err != nil {
		j.store.engine.metrics.storeWriteErrors.Inc()
		return fmt.Errorf("%w: persist result record: %v", errStorage, err)
	}
	j.mu.Lock()
	j.bytes += int64(len(j.next.buf) - len(j.res.buf))
	j.res = j.next
	j.bumpLocked()
	j.mu.Unlock()
	j.store.points.Add(uint64(len(recs)))
	return nil
}

// isClosed reports whether shutdown has begun.
func (s *Store) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// bumpLocked wakes every stream waiting for more lines or a state change.
// A terminal job's streams return rather than wait, so it takes the shared
// closedUpdate instead of a fresh channel, and a later bump is a no-op.
// Requires j.mu.
func (j *Job) bumpLocked() {
	if j.update == closedUpdate {
		return
	}
	close(j.update)
	j.update = closedUpdate
	if !j.state.terminal() {
		j.update = make(chan struct{})
	}
}

// closedUpdate is the update channel of every terminal job: closed, so no
// stream ever waits on it.
var closedUpdate = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	done := j.res.count()
	if j.onDisk != nil {
		done = j.onDisk.records
	}
	st := JobStatus{
		ID:          j.id,
		State:       j.state,
		TotalPoints: j.totalPoints,
		PointsDone:  done,
		CreatedAt:   j.created,
		Error:       j.errMsg,
		Reason:      j.reason,
		Distributed: j.distributed,
	}
	if j.state.terminal() {
		fin := j.finished
		st.FinishedAt = &fin
	}
	return st
}

// Cancel stops the job and waits for it to settle, so the returned status
// is already terminal and, with a durable store, saved. Cancelling a
// finished job is a no-op. A cancellation requested here is durable: unlike
// a shutdown interruption, the job stays cancelled across a store restart.
func (j *Job) Cancel() JobStatus {
	j.mu.Lock()
	j.userCancel = true
	cancel := j.cancel // nil once the job has ended
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	<-j.done
	return j.Status()
}

// Wait blocks until the job settles — it reached a terminal state and a
// durable store saved it — or ctx expires.
func (j *Job) Wait(ctx context.Context) (JobStatus, error) {
	select {
	case <-j.done:
		return j.Status(), nil
	case <-ctx.Done():
		return JobStatus{}, ctx.Err()
	}
}

// StreamResults writes the job's NDJSON result lines to write, starting at
// the cursor-th record, following the live job until it reaches a terminal
// state, and returning the next cursor. Because every line was encoded
// exactly once at evaluation time, the bytes written for records
// [cursor, end) are identical across calls — an interrupted stream resumed
// at its next unread record concatenates to the exact bytes of an
// uninterrupted stream. A failed or cancelled job's stream ends with a
// trailing {"error": ...} line after its last record, mirroring the
// mid-stream error contract of POST /v1/sweep.
//
// write is called outside the job's lock but from a single goroutine; its
// error aborts the stream (e.g. the client disconnected). ctx cancellation
// stops a follow of a still-running job.
func (j *Job) StreamResults(ctx context.Context, cursor int, write func([]byte) error) (next int, err error) {
	return j.streamResults(ctx, cursor, write, nil)
}

// streamResults is StreamResults with a flush hook: after writing every line
// available at a wake, it calls flush once before blocking for more or
// returning, so a stream pays one flush per wake, not one per record. A
// wake that wrote nothing is not flushed. flush may be nil.
func (j *Job) streamResults(ctx context.Context, cursor int, write func([]byte) error, flush func()) (next int, err error) {
	if cursor < 0 {
		return cursor, invalidf("cursor must be non-negative, got %d", cursor)
	}
	written := false // lines written since the last flush
	flushWritten := func() {
		if written && flush != nil {
			flush()
		}
		written = false
	}
	for {
		j.mu.Lock()
		res := j.res // append-only: the prefix it holds is immutable
		state := j.state
		errMsg := j.errMsg
		update := j.update
		onDisk := j.onDisk != nil
		j.mu.Unlock()
		if onDisk {
			j.loadFromDisk()
			continue
		}

		for cursor < res.count() {
			if err := write(res.line(cursor)); err != nil {
				return cursor, err
			}
			written = true
			cursor++
		}
		if state.terminal() {
			switch state {
			case JobFailed:
				err, written = write(errorLine(errMsg)), true
			case JobCancelled:
				err, written = write(errorLine("sweep job cancelled")), true
			}
			flushWritten()
			return cursor, err
		}
		flushWritten()
		select {
		case <-update:
		case <-ctx.Done():
			return cursor, ctx.Err()
		}
	}
}

// loadFromDisk publishes a replayed finished job's lines on their first
// read: one read of the result log, sealed to the prefix replay kept,
// shared by every concurrent first reader. A log that no longer verifies
// to it (deleted, truncated or corrupted since replay) publishes no line
// and demotes the job to failed/storage, durably, as a seal mismatch at
// replay does. An I/O error fails the job for this process only: the log
// may still verify to its seal at the next restart.
func (j *Job) loadFromDisk() {
	j.loadOnce.Do(func() {
		j.mu.Lock()
		want := *j.onDisk
		j.mu.Unlock()
		res, err := j.store.persist.readResults(j.id, want)
		j.mu.Lock()
		j.onDisk = nil
		if err == nil {
			j.res = res
		} else {
			j.state = JobFailed
			j.reason = ReasonStorage
			j.errMsg = err.Error()
		}
		j.mu.Unlock()
		if errors.Is(err, errSealMismatch) {
			j.store.persistDemotion(j)
		}
	})
}

// persistDemotion releases the bytes of a finished job demoted to
// failed/storage after replay, whose log now keeps no record, and saves
// its manifest, unless the job was evicted meanwhile: its directory is
// gone, and a save would bring it back.
func (s *Store) persistDemotion(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jobs[j.id] != j {
		return
	}
	j.mu.Lock()
	s.finishedBytes -= j.bytes // settled at replay
	j.bytes = 0
	m := j.manifest()
	j.mu.Unlock()
	if err := s.persist.saveManifest(m); err != nil {
		s.engine.metrics.storeWriteErrors.Inc()
		s.logger().Error("persist demoted job state",
			slog.String("job", j.id), slog.String("error", err.Error()))
	}
}

// errorLine encodes a stream's trailing {"error": ...} line.
func errorLine(msg string) []byte {
	line, _ := json.Marshal(SweepError{Error: msg})
	return append(line, '\n')
}
