package yieldsim

// The Monte-Carlo scheduler. Every estimator in this package runs through
// run: the trial budget is split into chunks of DefaultChunkSize trials,
// each owning a PRNG stream derived from Seed, pulled by a bounded worker
// pool, and folded into the estimate by an index-ordered commit ledger. A
// fixed-run estimate and a precision-targeted one are the same loop; they
// differ only in the stopping rule the ledger checks at every committed
// chunk boundary (stats.SequentialCI{Epsilon}), which never fires at
// Epsilon = 0.
//
// Committing in chunk-INDEX order (not completion order) is what makes the
// estimate deterministic: per-chunk success counts are functions of the
// chunk seeds alone, so the first boundary at which the rule fires — and
// with it the realized trial count and the estimate — is a pure function of
// (Seed, Epsilon, Runs). Worker count and goroutine scheduling only decide
// how many chunks beyond the stopping boundary were speculatively computed
// and discarded, never what the estimate is.

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"dmfb/internal/defects"
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

// commitLedger is the shared state of one estimate. Workers record each
// finished chunk and then advance the committed prefix while it is
// contiguous, testing the stopping rule at every boundary they fold in. The
// mutable fields are guarded by mu.
type commitLedger struct {
	rule   stats.SequentialCI
	budget int
	stop   func() // cancels the remaining work

	mu   sync.Mutex
	succ []int // per-chunk success counts; -1 while the chunk is pending
	// committed is the length of the committed prefix; chunks [0, committed)
	// are folded into successes/trials. Once stopped is set no later chunk
	// is folded in, whatever its index, so the two stay frozen at the
	// boundary where the rule fired.
	committed         int
	successes, trials int
	stopped           bool
	err               error // the first trial error, which voids the estimate
}

// runs is chunk c's trial count: the last chunk is short when the budget is
// not a chunk multiple.
func (l *commitLedger) runs(c int) int {
	return min(DefaultChunkSize, l.budget-c*DefaultChunkSize)
}

// record stores chunk c's outcome and extends the committed prefix in index
// order. It returns true once the estimate is frozen, which tells the
// calling worker to stop pulling chunks.
func (l *commitLedger) record(c, successes int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.succ[c] = successes
	for !l.stopped && l.committed < len(l.succ) && l.succ[l.committed] >= 0 {
		l.successes += l.succ[l.committed]
		l.trials += l.runs(l.committed)
		l.committed++
		if l.rule.Satisfied(l.successes, l.trials) {
			l.stopped = true
			l.stop()
		}
	}
	return l.stopped
}

// fail records a trial error and cancels the remaining work; the first
// error recorded is the one the estimate returns.
func (l *commitLedger) fail(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err == nil {
		l.err = err
	}
	l.stop()
}

// run executes up to mc.Runs trials through the chunked worker pool and
// returns the ledger's committed estimate (see the file comment). A
// cancelled ctx aborts within one chunk's worth of work per worker and
// returns ctx.Err(); a trial error cancels the pool and is returned.
func (mc *MonteCarlo) run(ctx context.Context, factory trialFactory) (Result, error) {
	if mc.Runs <= 0 {
		return Result{}, fmt.Errorf("yieldsim: Runs must be positive, got %d", mc.Runs)
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	// runCtx also stops the chunk producer when the rule fires or a trial
	// error empties the worker pool early, so no goroutine outlives this call.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	numChunks := (mc.Runs + DefaultChunkSize - 1) / DefaultChunkSize
	ledger := &commitLedger{
		rule:   stats.SequentialCI{Epsilon: mc.Epsilon},
		budget: mc.Runs,
		stop:   cancel,
		succ:   make([]int, numChunks),
	}
	for c := range ledger.succ {
		ledger.succ[c] = -1
	}
	seeds := stats.SeedStream(mc.Seed, numChunks)
	workers := min(mc.workerCount(), numChunks)

	// The producer hands out chunk indexes in strictly increasing order, so
	// when the rule fires at a boundary every chunk at or before it has been
	// handed out and completed; cancelling then only abandons chunks past
	// the frozen prefix.
	chunkCh := make(chan int)
	go func() {
		defer close(chunkCh)
		for c := 0; c < numChunks; c++ {
			select {
			case chunkCh <- c:
			case <-runCtx.Done():
				return
			}
		}
	}()

	proto := mc.newProbe(ctx)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			probe := proto // each worker owns a copy
			batch, err := factory(&probe)
			if err != nil {
				ledger.fail(err)
				return
			}
			in := defects.NewInjector(0) // reseeded per chunk below
			for c := range chunkCh {
				if runCtx.Err() != nil {
					break
				}
				runs := ledger.runs(c)
				in.Reseed(seeds[c])
				start := probe.begin()
				successes, err := runChunk(batch, in, runs)
				if err != nil {
					ledger.fail(err)
					return
				}
				probe.flush(runCtx, c, runs, successes, start)
				if ledger.record(c, successes) {
					break
				}
			}
		}()
	}
	wg.Wait()
	// A trial error takes precedence: it is what cancelled runCtx.
	if ledger.err != nil {
		return Result{}, ledger.err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if m := mc.Metrics; m != nil && ledger.rule.Enabled() {
		m.RealizedRuns.Observe(float64(ledger.trials))
		if ledger.stopped {
			m.EarlyStops.Add(1)
		}
	}
	return newResult(ledger.successes, ledger.trials), nil
}

// runChunk runs one chunk's trials through a worker's program, one 64-trial
// word at a time; the last word is short when runs is not a multiple of 64.
func runChunk(batch batchFunc, in *defects.Injector, runs int) (int, error) {
	successes := 0
	for off := 0; off < runs; off += defects.WordTrials {
		s, err := batch(in, min(runs-off, defects.WordTrials))
		if err != nil {
			return 0, err
		}
		successes += s
	}
	return successes, nil
}
