package service

import (
	"context"
	"errors"
)

// ErrPoisonShard tags a distributed job that was terminated because one of
// its shards exhausted its dispatch budget: every worker that leased the
// shard crashed, stalled past its lease, or submitted garbage. Rather than
// redispatch the shard forever — burning the whole fleet on one poisoned
// unit of work — the coordinator quarantines it and fails the job with this
// typed, persisted diagnosis (JobStatus.Reason == "poison_shard").
var ErrPoisonShard = errors.New("shard quarantined: dispatch budget exhausted")

// DistributedRunner executes one sweep job across remote workers. The job
// store calls RunJob instead of the local engine when a job opted into
// distributed mode; the runner partitions the plan's grid into shards,
// leases them to registered workers, and must hand emit every record of
// [start, NumPoints) strictly in grid-point order — the record sequence of
// Engine.RunSweepRange, which is what keeps the job's NDJSON stream
// byte-identical to single-process execution at every cursor.
//
// emit takes a contiguous run of records, as RunSweepRange's does: whatever
// the runner has ready in grid order at once. The job store commits each
// run with one durable append (one write and one fsync) and publishes it to
// streams with one wake, local and distributed jobs alike, so a runner that
// passes every record it has ready in one call pays the log's I/O once per
// run, not once per record.
//
// internal/dispatch.Coordinator is the canonical implementation; the
// interface lives here so the service layer never imports the dispatch
// package (dispatch already imports service for the wire types).
type DistributedRunner interface {
	// RunJob evaluates plan's points [start, NumPoints) through remote
	// workers and emits their records in index order, in contiguous runs.
	// req must carry fully resolved simulation parameters (the runner
	// forwards it to workers, whose engine defaults may differ). RunJob
	// returns after the final record is emitted, with emit's error if a
	// run fails to commit, or with ctx's error on cancellation.
	RunJob(ctx context.Context, jobID string, plan *SweepPlan, req SweepRequest, start int, emit func([]SweepRecord) error) error
}

// Worker wire types. These are the bodies of the POST /v2/workers/*
// endpoints the dispatch coordinator serves and the dtmb-worker binary
// calls (through the client package, which aliases them). They live in the
// service package with the rest of the wire contracts so client, dispatch,
// and service share one set of types without an import cycle.

// WorkerRegisterRequest announces a worker to the coordinator.
type WorkerRegisterRequest struct {
	// Name is a human-readable worker label for logs and stats; the
	// coordinator assigns the authoritative worker ID.
	Name string `json:"name,omitempty"`
}

// WorkerRegisterResponse is the coordinator's registration receipt.
type WorkerRegisterResponse struct {
	// WorkerID identifies the worker on every subsequent call.
	WorkerID string `json:"worker_id"`
	// LeaseTTLMillis is the lease time-to-live; a worker must heartbeat
	// well inside it (TTL/3 is the convention) or its shard is redispatched.
	LeaseTTLMillis int64 `json:"lease_ttl_ms"`
}

// LeaseRequest asks the coordinator for one shard of work.
type LeaseRequest struct {
	WorkerID string `json:"worker_id"`
}

// ShardLease is one unit of leased work: a contiguous, index-ordered slice
// [start, end) of a job's deterministic grid. The embedded request carries
// fully resolved simulation parameters (runs, seed, epsilon), which are all
// an estimate depends on, so the worker's evaluation is bit-identical to
// the coordinator evaluating the same points locally.
type ShardLease struct {
	LeaseID string `json:"lease_id"`
	JobID   string `json:"job_id"`
	Shard   int    `json:"shard"`
	// Start and End bound the shard's grid-point indices: [start, end).
	Start int `json:"start"`
	End   int `json:"end"`
	// Request is the job's sweep request with resolved parameters; the
	// worker re-plans it (grid expansion is deterministic) and evaluates
	// points [start, end).
	Request SweepRequest `json:"request"`
	// TTLMillis echoes the lease time-to-live for heartbeat pacing.
	TTLMillis int64 `json:"ttl_ms"`
}

// HeartbeatRequest renews a lease. A 410 response means the lease is gone
// (expired and redispatched, or its job cancelled): the worker should abort
// the shard's evaluation.
type HeartbeatRequest struct {
	WorkerID string `json:"worker_id"`
	LeaseID  string `json:"lease_id"`
}

// ShardResultRequest submits a completed shard's records, in index order.
// Submission is idempotent and at-least-once: a late submission from an
// expired lease is accepted if the shard is still unfinished (the kernel is
// deterministic, so every evaluation of a shard yields identical records)
// and ignored if a twin already completed it.
type ShardResultRequest struct {
	WorkerID string        `json:"worker_id"`
	LeaseID  string        `json:"lease_id"`
	JobID    string        `json:"job_id"`
	Shard    int           `json:"shard"`
	Records  []SweepRecord `json:"records"`
}
