package dispatch

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"reflect"
	"time"

	"dmfb/client"
	"dmfb/internal/faultinject"
	"dmfb/internal/service"
)

// WorkerConfig tunes one worker process.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL, e.g. "http://host:8080".
	Coordinator string
	// Name is an optional human-readable label for the coordinator's logs.
	Name string
	// Engine tunes the worker's local simulation engine. Determinism-relevant
	// parameters (runs, seed, epsilon, chunk size) are always overridden by
	// the lease, so only capacity knobs (workers, cache size, concurrency)
	// matter here.
	Engine service.EngineConfig
	// Poll is the base backoff between lease attempts when no work is
	// available (jittered to decorrelate a worker fleet); 0 means 500ms.
	Poll time.Duration
	// Logger receives worker lifecycle events; nil discards them.
	Logger *slog.Logger
	// Inject supplies a chaos fault schedule for the worker loop (crash
	// mid-shard, slow shard, duplicate or corrupted submission). nil — the
	// default and the production setting — disables injection entirely.
	Inject *faultinject.Injector
	// ClientOptions are appended to the coordinator client's construction —
	// chaos tests thread a fault-injecting transport through here.
	ClientOptions []client.Option
}

// RunWorker runs the worker loop until ctx is cancelled: wait for the
// coordinator to report ready, register, then pull shard leases, evaluate
// them through the local engine (cache, single-flight, admission, and
// telemetry all apply), and submit results. Lease evaluation heartbeats at
// TTL/3; a 410 on heartbeat aborts the shard (someone else owns it now).
// Every retry sleep is jittered so a restarted coordinator is not hit by
// the whole fleet in lockstep.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	poll := cfg.Poll
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	// One policy governs every retried call in the worker: lease-paced
	// backoff base, a bounded attempt count, and a per-attempt timeout so a
	// stalled coordinator never wedges the loop (all worker calls are fast
	// control-plane exchanges; shard evaluation happens locally).
	policy := client.Policy{
		MaxAttempts:    4,
		BaseBackoff:    poll,
		MaxBackoff:     8 * poll,
		AttemptTimeout: 30 * time.Second,
	}
	opts := append([]client.Option{client.WithPolicy(policy)}, cfg.ClientOptions...)
	cli := client.New(cfg.Coordinator, opts...)
	engine := service.NewEngine(cfg.Engine)

	// Readiness gate: a coordinator replaying its durable store answers 503
	// on /readyz; registering against it would just fail.
	for {
		if err := cli.Ready(ctx); err == nil {
			break
		} else if ctx.Err() != nil {
			return ctx.Err()
		} else {
			logger.Debug("coordinator not ready", slog.String("error", err.Error()))
		}
		if err := sleepCtx(ctx, client.Jitter(poll)); err != nil {
			return err
		}
	}
	// Registration is idempotent from the worker's point of view (a retried
	// registration just burns an ID), so drive it under the policy rather
	// than dying on the first transient fault of a freshly-started fleet.
	var reg client.WorkerRegisterResponse
	err := policy.Do(ctx, func(actx context.Context) error {
		var rerr error
		reg, rerr = cli.RegisterWorker(actx, client.WorkerRegisterRequest{Name: cfg.Name})
		return rerr
	})
	if err != nil {
		return fmt.Errorf("dispatch: register worker: %w", err)
	}
	logger.Info("worker registered",
		slog.String("worker", reg.WorkerID), slog.String("coordinator", cfg.Coordinator))

	// Every lease of one job carries the identical request, and re-planning
	// a 20k-point grid per shard would be waste, so the last plan is kept.
	var plans planSlot
	for {
		lease, err := cli.LeaseShard(ctx, reg.WorkerID)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err != nil {
			// Coordinator briefly unreachable (restart, network): back off
			// and retry — the lease endpoint re-registers unknown worker IDs,
			// so no re-registration dance is needed.
			logger.Debug("lease attempt failed", slog.String("error", err.Error()))
			if err := sleepCtx(ctx, client.Jitter(poll)); err != nil {
				return err
			}
			continue
		}
		if lease == nil {
			if err := sleepCtx(ctx, client.Jitter(poll)); err != nil {
				return err
			}
			continue
		}
		if err := evalLease(ctx, cli, engine, &plans, reg.WorkerID, lease, policy, cfg.Inject, logger); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			logger.Warn("shard evaluation failed",
				slog.String("lease", lease.LeaseID), slog.String("job", lease.JobID),
				slog.Int("shard", lease.Shard), slog.String("error", err.Error()))
			// The lease will expire and the shard be redispatched; nothing
			// for this worker to do but move on.
		}
	}
}

// evalLease evaluates one leased shard and submits its records. The shard's
// evaluation context is cancelled when a heartbeat answers 410 — the lease
// expired and the shard belongs to someone else, so burning more CPU on it
// helps nobody (its submission would still be accepted, but a live twin is
// already on it).
func evalLease(ctx context.Context, cli *client.Client, engine *service.Engine, plans *planSlot, workerID string, lease *client.ShardLease, policy client.Policy, inject *faultinject.Injector, logger *slog.Logger) error {
	plan, err := plans.get(engine, lease)
	if err != nil {
		return err
	}
	if lease.Start < 0 || lease.End > plan.NumPoints() || lease.Start > lease.End {
		return fmt.Errorf("lease range [%d,%d) outside grid of %d points", lease.Start, lease.End, plan.NumPoints())
	}

	shardCtx, cancelShard := context.WithCancel(ctx)
	defer cancelShard()
	ttl := time.Duration(lease.TTLMillis) * time.Millisecond
	hbInterval := ttl / 3
	if hbInterval < 10*time.Millisecond {
		hbInterval = 10 * time.Millisecond
	}
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		t := time.NewTicker(hbInterval)
		defer t.Stop()
		for {
			select {
			case <-shardCtx.Done():
				return
			case <-t.C:
				err := cli.HeartbeatLease(shardCtx, workerID, lease.LeaseID)
				var apiErr *client.APIError
				if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusGone {
					logger.Info("lease gone, abandoning shard",
						slog.String("lease", lease.LeaseID), slog.Int("shard", lease.Shard))
					cancelShard()
					return
				}
				// Transient heartbeat failures are survivable as long as one
				// succeeds inside the TTL; keep ticking.
			}
		}
	}()

	// Chaos seams. Slow: stall the shard (heartbeats keep it alive unless the
	// stall outlives the TTL budget the test armed). Crash: abandon the shard
	// without submitting — the in-process analog of kill -9 mid-shard; the
	// lease expires and the coordinator redispatches.
	if d := inject.Eval(faultinject.WorkerSlow); d.Fire && d.Delay > 0 {
		if err := sleepCtx(shardCtx, d.Delay); err != nil {
			return err
		}
	}
	if d := inject.Eval(faultinject.WorkerCrash); d.Fire {
		return d.Err
	}

	records := make([]service.SweepRecord, 0, lease.End-lease.Start)
	evalErr := engine.RunSweepRange(shardCtx, plan, lease.Start, lease.End, func(rec service.SweepRecord) error {
		// Cache provenance is worker-local state; the coordinator normalizes
		// it too, but stripping it here keeps the wire payload canonical.
		rec.Cached = false
		records = append(records, rec)
		return nil
	})
	cancelShard()
	<-hbDone
	if evalErr != nil {
		return evalErr
	}

	sub := client.ShardResultRequest{
		WorkerID: workerID,
		LeaseID:  lease.LeaseID,
		JobID:    lease.JobID,
		Shard:    lease.Shard,
		Records:  records,
	}
	if d := inject.Eval(faultinject.WorkerCorruptSubmit); d.Fire && len(sub.Records) > 0 {
		// Structural corruption: clone the records, then misindex one and
		// drop another. The coordinator's validation must reject this outright
		// (never merge it) and leave the shard for redispatch.
		corrupted := append([]service.SweepRecord(nil), sub.Records...)
		corrupted[0].Index += 1000000
		sub.Records = corrupted[:len(corrupted)-1]
	}
	if err := submitShard(ctx, cli, policy, sub, logger); err != nil {
		return fmt.Errorf("submit shard %d of %s: %w", lease.Shard, lease.JobID, err)
	}
	if d := inject.Eval(faultinject.WorkerDuplicateSubmit); d.Fire {
		// Deliberate duplicate: the coordinator must answer 410 (first-wins)
		// and the worker must shrug it off. submitShard treats 410 as benign,
		// so an error here would itself be a found bug.
		if err := submitShard(ctx, cli, policy, sub, logger); err != nil {
			return fmt.Errorf("duplicate submit of shard %d of %s surfaced: %w", lease.Shard, lease.JobID, err)
		}
	}
	return nil
}

// planSlot holds the plan of the last lease a worker evaluated, so the
// worker's memory does not grow with the jobs it serves. The plan is reused
// only for a lease of the same job with the same request and chunk size: an
// in-memory coordinator numbers jobs from job-1 again after a restart, so a
// job ID alone does not identify a request.
type planSlot struct {
	jobID     string
	req       service.SweepRequest
	chunkSize int
	plan      *service.SweepPlan
}

// get returns the plan for lease, re-planning when the slot holds another
// lease's.
func (s *planSlot) get(engine *service.Engine, lease *client.ShardLease) (*service.SweepPlan, error) {
	if s.plan != nil && s.jobID == lease.JobID && s.chunkSize == lease.ChunkSize && reflect.DeepEqual(s.req, lease.Request) {
		return s.plan, nil
	}
	plan, err := engine.PlanSweep(lease.Request)
	if err != nil {
		return nil, fmt.Errorf("plan leased sweep: %w", err)
	}
	// The lease's chunk size is the coordinator's — part of the determinism
	// contract, never this worker's own default.
	plan.SetChunkSize(lease.ChunkSize)
	*s = planSlot{jobID: lease.JobID, req: lease.Request, chunkSize: lease.ChunkSize, plan: plan}
	return plan, nil
}

// submitShard delivers one shard's records under the retry policy.
// Transport faults and 5xx are retried (submission is first-wins idempotent
// server-side); a 410 means a twin already completed the shard — this
// worker's copy was discarded, which is success from the job's point of
// view; any other definitive answer (400 malformed) is a real error.
func submitShard(ctx context.Context, cli *client.Client, policy client.Policy, sub client.ShardResultRequest, logger *slog.Logger) error {
	err := policy.Do(ctx, func(actx context.Context) error {
		return cli.SubmitShard(actx, sub)
	})
	var apiErr *client.APIError
	if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusGone {
		logger.Info("shard already completed by a twin; submission discarded",
			slog.String("job", sub.JobID), slog.Int("shard", sub.Shard))
		return nil
	}
	return err
}

// sleepCtx sleeps for d or until ctx is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
