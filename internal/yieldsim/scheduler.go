package yieldsim

// The Monte-Carlo scheduler. Every estimator in this package runs through
// run: the trial budget is split into chunks of DefaultChunkSize trials,
// each owning a PRNG stream derived from Seed, and the chunks run on
// ordered.Run, the in-order parallel fold that sweeps also use. Workers
// compute chunks in any order; the fold adds their success counts strictly
// in chunk-index order. A fixed-run estimate and a precision-targeted one
// are the same fold; they differ only in the stopping rule it checks at
// every committed chunk boundary (stats.SequentialCI{Epsilon}), which never
// fires at Epsilon = 0.
//
// Folding in chunk-INDEX order (not completion order) is what makes the
// estimate deterministic: per-chunk success counts are functions of the
// chunk seeds alone, so the first boundary at which the rule fires — and
// with it the realized trial count and the estimate — is a pure function of
// (Seed, Epsilon, Runs). So is a trial error: the one returned is the error
// of the lowest failing chunk. Worker count and goroutine scheduling only
// decide how many chunks beyond the stopping boundary were speculatively
// computed and discarded, never what the estimate is.

import (
	"context"
	"fmt"
	"log/slog"
	"time"

	"dmfb/internal/defects"
	"dmfb/internal/ordered"
	"dmfb/internal/stats"
	"dmfb/internal/telemetry"
)

// batchFunc runs one word of n ≤ 64 trials with the worker's injector and
// returns the number that survived. Every program injects its word into a
// defects.TrialBatch (trial-major, so the PRNG stream matches n successive
// scalar draws draw for draw) and judges it on the column plane: the
// all-healthy screen is one popcount, and the local program's session
// Screen settles every trial its exact degree-1 peeling decides, so only
// the undecided core is transposed and reaches the matcher.
type batchFunc func(in *defects.Injector, n int) (successes int, err error)

// trialFactory builds one worker's trial program together with the scratch
// it owns, wiring the worker's probe into the closures. run calls it once
// per worker; workers share nothing but read-only inputs (the array,
// masks, model parameters).
type trialFactory func(probe *kernelProbe) (batchFunc, error)

// kernelProbe accumulates one worker's trial-path observations in plain
// (non-atomic) fields and publishes them once per chunk (flush), so trials
// pay a plain increment and the shared Metrics counters see one atomic add
// per chunk.
type kernelProbe struct {
	// allHealthy counts trials whose fault draw came up empty (the fast
	// path that never consults a screen or the matcher).
	allHealthy uint64
	// screened counts faulty trials a word-parallel verdict settled without
	// a per-trial decision: a batch Screen, peeled ones included, or the
	// shifted column walk.
	screened uint64
	// matcher counts trials decided one at a time by the matcher.
	matcher uint64

	// metrics and spans are the estimate's sinks, resolved once per
	// estimate; spans is nil unless the logger is enabled at debug. traceID
	// names the request the chunks serve.
	metrics *telemetry.KernelMetrics
	spans   *slog.Logger
	traceID string
}

// newProbe returns a zeroed probe wired to the estimate's sinks. They are
// resolved once per estimate: metrics flush per chunk; span events
// additionally require a logger with debug enabled. The trace ID travels in
// ctx from the HTTP middleware (or any other caller) down to here, so a
// chunk span names the request it served.
func (mc *MonteCarlo) newProbe(ctx context.Context) kernelProbe {
	p := kernelProbe{metrics: mc.Metrics, traceID: telemetry.TraceID(ctx)}
	if mc.Logger != nil && mc.Logger.Enabled(ctx, slog.LevelDebug) {
		p.spans = mc.Logger
	}
	return p
}

// begin starts timing a chunk; it returns the zero time when nothing is
// instrumented, so uninstrumented estimates never read the clock.
func (p *kernelProbe) begin() time.Time {
	if p.metrics == nil && p.spans == nil {
		return time.Time{}
	}
	return time.Now()
}

// flush publishes one finished chunk — the metrics flush and the
// kernel_chunk span event — and zeroes the counters for the next chunk.
func (p *kernelProbe) flush(ctx context.Context, chunk, trials, successes int, start time.Time) {
	if p.metrics == nil && p.spans == nil {
		return
	}
	elapsed := time.Since(start)
	if m := p.metrics; m != nil {
		m.Trials.Add(uint64(trials))
		m.AllHealthy.Add(p.allHealthy)
		m.Screened.Add(p.screened)
		m.MatcherInvocations.Add(p.matcher)
		m.ChunkSeconds.Observe(elapsed.Seconds())
	}
	if p.spans != nil {
		p.spans.LogAttrs(ctx, slog.LevelDebug, "kernel_chunk",
			slog.String("trace_id", p.traceID),
			slog.Int("chunk", chunk),
			slog.Int("trials", trials),
			slog.Int("successes", successes),
			slog.Uint64("all_healthy", p.allHealthy),
			slog.Uint64("screened", p.screened),
			slog.Uint64("matcher", p.matcher),
			slog.Float64("duration_ms", float64(elapsed.Microseconds())/1000),
		)
	}
	p.allHealthy, p.screened, p.matcher = 0, 0, 0
}

// run executes up to mc.Runs trials and returns their estimate (see the
// file comment). Each worker builds its trial program, probe and injector
// once; chunk c reseeds the injector from seeds[c] and runs its trials one
// word at a time. The fold adds each chunk's successes in chunk order and
// tests the stopping rule at every boundary. A cancelled ctx aborts within
// one chunk's worth of work per worker and returns ctx.Err(); a trial error
// is returned once the fold reaches its chunk.
func (mc *MonteCarlo) run(ctx context.Context, factory trialFactory) (Result, error) {
	if mc.Runs <= 0 {
		return Result{}, fmt.Errorf("yieldsim: Runs must be positive, got %d", mc.Runs)
	}
	budget := mc.Runs
	numChunks := (budget + DefaultChunkSize - 1) / DefaultChunkSize
	seeds := stats.SeedStream(mc.Seed, numChunks)
	rule := stats.SequentialCI{Epsilon: mc.Epsilon}
	proto := mc.newProbe(ctx)
	// One variable, so the commit closure, which a worker goroutine may
	// run, moves one allocation to the heap, not three.
	var tally struct {
		successes, trials int
		stopped           bool
	}
	err := ordered.Run(ctx, numChunks, mc.Workers,
		func() (func(context.Context, int) (int, error), error) {
			probe := proto // each worker owns a copy
			batch, err := factory(&probe)
			if err != nil {
				return nil, err
			}
			in := defects.NewInjector(0) // reseeded per chunk
			return func(ctx context.Context, c int) (int, error) {
				runs := chunkRuns(c, budget)
				in.Reseed(seeds[c])
				start := probe.begin()
				s := 0
				for off := 0; off < runs; off += defects.WordTrials {
					w, err := batch(in, min(runs-off, defects.WordTrials))
					if err != nil {
						return 0, err
					}
					s += w
				}
				probe.flush(ctx, c, runs, s, start)
				return s, nil
			}, nil
		},
		func(c, s int) (bool, error) {
			tally.successes += s
			tally.trials += chunkRuns(c, budget)
			tally.stopped = rule.Satisfied(tally.successes, tally.trials)
			return tally.stopped, nil
		}, nil)
	if err != nil {
		return Result{}, err
	}
	if m := mc.Metrics; m != nil && rule.Enabled() {
		m.RealizedRuns.Observe(float64(tally.trials))
		if tally.stopped {
			m.EarlyStops.Add(1)
		}
	}
	return newResult(tally.successes, tally.trials), nil
}

// chunkRuns is chunk c's trial count: the last chunk is short when the
// budget is not a chunk multiple.
func chunkRuns(c, budget int) int {
	return min(DefaultChunkSize, budget-c*DefaultChunkSize)
}
