// Package yieldsim estimates the manufacturing yield of defect-tolerant
// microfluidic arrays, reproducing the analysis of paper §6.
//
// Two estimators are provided. For DTMB(1,6), whose spare assignment is
// unique, the closed-form cluster model applies: the array decomposes into
// clusters of one spare plus its six primaries, a cluster survives iff at
// most one of its seven cells fails, and clusters fail independently.
// For the higher-redundancy designs the spare assignment is a matching
// problem, so yield comes from Monte-Carlo simulation: in each run every
// cell fails i.i.d. with probability q = 1−p, and the run succeeds iff local
// reconfiguration (maximum bipartite matching) repairs every faulty primary.
// A third estimator, ShiftedYield, applies the same trial structure to the
// boundary-spare-row arrays of the shifted-replacement baseline the paper
// argues against (Fig. 2), so the two redundancy schemes can be compared on
// equal footing in parameter sweeps. The kernel takes any built array, so a
// DTMB array on a regular hexagonal chip footprint
// (layout.BuildHexagonWithPrimaryTarget) runs through the same
// YieldModelContext as a parallelogram one. The *ModelContext variants
// evaluate under an explicit spatial defect model (independent Bernoulli or
// clustered, defects.Model).
//
// The effective yield EY = Y·n/N = Y/(1+RR) weighs yield against the area
// overhead of redundancy (paper Fig. 10).
package yieldsim

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"math/bits"

	"dmfb/internal/defects"
	"dmfb/internal/layout"
	"dmfb/internal/reconfig"
	"dmfb/internal/sqgrid"
	"dmfb/internal/stats"
	"dmfb/internal/telemetry"
)

// NoRedundancy returns the yield p^n of an array whose n working cells have
// no spares: a single fault discards the chip.
func NoRedundancy(p float64, n int) float64 {
	if n < 0 {
		return 0
	}
	return math.Pow(p, float64(n))
}

// ClusterYieldDTMB16 returns the closed-form yield of a DTMB(1,6) array with
// n primary cells (paper §6): Yc = p^7 + 7·p^6·(1−p), Y = Yc^(n/6).
func ClusterYieldDTMB16(p float64, n int) float64 {
	if n < 0 {
		return 0
	}
	yc := math.Pow(p, 7) + 7*math.Pow(p, 6)*(1-p)
	return math.Pow(yc, float64(n)/6.0)
}

// EffectiveYield returns EY = Y/(1+RR), the paper's yield-per-area metric.
func EffectiveYield(y, rr float64) float64 { return y / (1 + rr) }

// EffectiveYieldCells returns EY = Y·n/N given explicit cell counts.
func EffectiveYieldCells(y float64, nPrimary, nTotal int) float64 {
	if nTotal == 0 {
		return 0
	}
	return y * float64(nPrimary) / float64(nTotal)
}

// Result is a Monte-Carlo yield estimate.
type Result struct {
	// Yield is the estimated success proportion.
	Yield float64
	// Runs and Successes give the raw counts.
	Runs, Successes int
	// CILo and CIHi bound the Wilson 95% confidence interval.
	CILo, CIHi float64
}

func newResult(successes, runs int) Result {
	prop := stats.Proportion{Successes: successes, Trials: runs}
	lo, hi := prop.Wilson95()
	return Result{Yield: prop.Value(), Runs: runs, Successes: successes, CILo: lo, CIHi: hi}
}

// String formats the estimate with its confidence interval.
func (r Result) String() string {
	return fmt.Sprintf("%.4f (95%% CI %.4f–%.4f, %d/%d runs)",
		r.Yield, r.CILo, r.CIHi, r.Successes, r.Runs)
}

// DefaultChunkSize is the number of trials in one work unit of the chunked
// Monte-Carlo scheduler. Small enough that cancellation is responsive and
// chunks load-balance across workers, large enough to amortize PRNG setup.
// Each chunk owns a PRNG stream derived from Seed, so with the work unit
// fixed an estimate is a pure function of (Seed, Runs, Epsilon) —
// independent of Workers and of goroutine scheduling.
const DefaultChunkSize = 256

// MonteCarlo runs reconfiguration-feasibility yield simulations. The zero
// value is not usable; use NewMonteCarlo.
type MonteCarlo struct {
	// Runs is the trial budget of an estimate (the paper uses 10000): a
	// fixed-run estimate runs all of them, a precision-targeted one
	// (Epsilon > 0) stops early once its target is met.
	Runs int
	// Seed makes every estimate reproducible.
	Seed int64
	// Workers bounds parallelism; 0 means GOMAXPROCS. It never changes an
	// estimate.
	Workers int
	// Scope and Used configure the repair criterion (default: RepairAll).
	Scope reconfig.Scope
	Used  []bool
	// Epsilon, when positive, makes the estimate precision-targeted: trials
	// run in the usual chunk-seeded order, but the estimate stops as soon as
	// the Wilson 95% half-width over the deterministic prefix of completed
	// chunks reaches Epsilon, with Runs as the trial budget. The stopping
	// rule is evaluated in chunk-index order regardless of which worker
	// finishes a chunk first, so the realized trial count — and therefore the
	// estimate — is deterministic in (Seed, Epsilon, Runs), independent of
	// Workers and GOMAXPROCS. Zero (the default) never stops early: the
	// estimate runs all Runs trials.
	Epsilon float64
	// Metrics, when non-nil, receives kernel observations: trials, their
	// all-healthy / screened / matcher split, and per-chunk wall time.
	// Workers accumulate in plain per-worker probes and flush once per
	// chunk, so the steady-state trial path stays allocation- and
	// atomic-free (pinned by the allocs regression tests). nil disables
	// instrumentation entirely.
	Metrics *telemetry.KernelMetrics
	// Logger, when non-nil and enabled at debug, emits one kernel_chunk
	// span event per completed chunk carrying the trace ID found in the
	// run's context (telemetry.TraceID) — the link between a slow HTTP
	// request and the exact chunks that served it. Info and above emit
	// nothing, so production logging costs one Enabled check per estimate.
	Logger *slog.Logger
}

// NewMonteCarlo returns a simulator with the paper's defaults (10000 runs).
func NewMonteCarlo(seed int64) *MonteCarlo {
	return &MonteCarlo{Runs: 10000, Seed: seed}
}

// sessionOptions assembles the reconfiguration options of the simulator's
// repair criterion.
func (mc *MonteCarlo) sessionOptions() reconfig.Options {
	return reconfig.Options{Scope: mc.Scope, Used: mc.Used}
}

// feasBatchVerdicts scores one injected batch in three tiers. All-healthy
// trials (clear bits of the occupied mask) succeed without any feasibility
// machinery. The session's Screen then settles, on the column plane and for
// all 64 trials at once, every occupied trial its exclusive-spare round and
// degree-1 peeling decide, feasible or not; all of them count as screened.
// Only the open rest — the core, about 1% of faulty trials — is transposed
// into per-trial fault words and judged by the matcher, word layout to word
// layout with no FaultSet in between; a batch with nothing open skips the
// transpose.
func feasBatchVerdicts(b *defects.TrialBatch, sess *reconfig.Session, probe *kernelProbe, n int) (int, error) {
	occ := b.Occupied()
	healthy := n - bits.OnesCount64(occ)
	probe.allHealthy += uint64(healthy)
	if occ == 0 {
		return healthy, nil
	}
	fail, open := sess.Screen(b.Cols())
	probe.screened += uint64(bits.OnesCount64(occ &^ open))
	successes := healthy + bits.OnesCount64(occ&^open&^fail)
	if open == 0 {
		return successes, nil
	}
	b.Finalize()
	for m := open; m != 0; m &= m - 1 {
		t := bits.TrailingZeros64(m)
		probe.matcher++
		ok, err := sess.FeasibleWords(b.Row(t))
		if err != nil {
			return 0, err
		}
		if ok {
			successes++
		}
	}
	return successes, nil
}

// Yield estimates the yield of the array at cell survival probability p:
// every cell (primary and spare) fails independently with probability 1−p,
// and the chip survives iff local reconfiguration repairs all faulty
// primaries.
func (mc *MonteCarlo) Yield(arr *layout.Array, p float64) (Result, error) {
	return mc.YieldContext(context.Background(), arr, p)
}

// YieldContext is Yield with cancellation: a cancelled ctx aborts the
// simulation between chunks and returns ctx.Err().
func (mc *MonteCarlo) YieldContext(ctx context.Context, arr *layout.Array, p float64) (Result, error) {
	return mc.YieldModelContext(ctx, arr, p, defects.Model{})
}

// YieldFixedFaults estimates the yield of the array when exactly m cells
// (drawn uniformly from the domain) fail — the case-study experiment of
// paper Fig. 13.
func (mc *MonteCarlo) YieldFixedFaults(arr *layout.Array, m int, domain defects.Domain) (Result, error) {
	return mc.YieldFixedFaultsContext(context.Background(), arr, m, domain)
}

// YieldFixedFaultsContext is YieldFixedFaults with cancellation.
func (mc *MonteCarlo) YieldFixedFaultsContext(ctx context.Context, arr *layout.Array, m int, domain defects.Domain) (Result, error) {
	if m < 0 {
		return Result{}, fmt.Errorf("yieldsim: negative fault count %d", m)
	}
	return mc.run(ctx, mc.localTrials(arr, fixedCountInjection(arr, m, domain)))
}

// ShiftedYield estimates the yield of a boundary-spare-row placement under
// shifted replacement: every cell (working, unused, and spare) fails i.i.d.
// with probability 1−p, and the chip survives iff every faulty working cell's
// function can cascade down its column into a spare row (paper Fig. 2).
// Faults are repaired deepest-first; faulty or already-consumed cells block
// a cascade, so under this strict adjacent-shifting scheme a column absorbs
// at most one repair. Spare rows beyond the first therefore add fallible
// area without adding repair capacity — which is exactly the scaling problem
// the paper holds against boundary redundancy, and what a sweep over the
// spare-row axis exhibits as flat yield with falling effective yield.
func (mc *MonteCarlo) ShiftedYield(pl sqgrid.Placement, p float64) (Result, error) {
	return mc.ShiftedYieldContext(context.Background(), pl, p)
}

// ShiftedYieldContext is ShiftedYield with cancellation.
func (mc *MonteCarlo) ShiftedYieldContext(ctx context.Context, pl sqgrid.Placement, p float64) (Result, error) {
	return mc.ShiftedYieldModelContext(ctx, pl, p, defects.Model{})
}

// ShiftedYieldModelContext is ShiftedYieldContext under an explicit spatial
// defect model: the zero model is the independent Bernoulli assumption of
// ShiftedYield; the clustered model draws Chebyshev-ring clusters on the
// square grid targeting the same expected defect density (1−p)·N. Column
// redundancy is notoriously fragile under clustering — one cluster spanning
// two columns of a module kills both cascades — which is exactly what this
// estimator lets a sweep exhibit.
func (mc *MonteCarlo) ShiftedYieldModelContext(ctx context.Context, pl sqgrid.Placement, p float64, model defects.Model) (Result, error) {
	factory, err := mc.shiftedTrials(pl, p, model)
	if err != nil {
		return Result{}, err
	}
	return mc.run(ctx, factory)
}

// shiftedTrials validates the shifted-replacement inputs and returns the
// per-worker trial factory: 64 trials per machine word under the model
// (i.i.d. Bernoulli faults, or Chebyshev-ring clusters on the square grid)
// and a verdict on the column plane.
func (mc *MonteCarlo) shiftedTrials(pl sqgrid.Placement, p float64, model defects.Model) (trialFactory, error) {
	if math.IsNaN(p) || p < 0 || p > 1 {
		return nil, fmt.Errorf("yieldsim: survival probability %v outside [0,1]", p)
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	if pl.SpareRows < 1 {
		return nil, fmt.Errorf("yieldsim: shifted replacement needs at least one spare row")
	}
	// Under the strict scheme cascades are strictly vertical, any faulty cell
	// (working, unused, or spare) blocks one, and a column's first spare cell
	// absorbs it. So a trial fails iff some faulty used cell has a faulty
	// cell below it, down to and including the first spare row: of two
	// faulty used cells in a column the upper one has, and so does the
	// deepest one of a blocked cascade. Each column is walked bottom-up from
	// its first spare cell with a running OR of the column words below, one
	// word operation per cell for 64 trials. The verdict is pinned by a
	// reference test against reconfig.ShiftSession.
	numCells := pl.Grid.NumCells()
	used := make([]bool, numCells) // read-only across workers
	for _, c := range pl.UsedCells() {
		used[pl.Grid.Index(c)] = true
	}
	w, h := pl.Grid.W, pl.Grid.H
	firstSpare := h - pl.SpareRows
	var cp defects.ClusterParams
	if model.Clustered {
		cp = model.Params(p, numCells)
	}
	return func(probe *kernelProbe) (batchFunc, error) {
		tb := defects.NewTrialBatch(numCells)
		return func(in *defects.Injector, n int) (int, error) {
			if model.Clustered {
				if _, err := in.ClusteredGridBatch(w, h, cp, n, tb); err != nil {
					return 0, err
				}
			} else {
				in.BernoulliBatch(numCells, p, n, tb)
			}
			occ := tb.Occupied()
			faulty := bits.OnesCount64(occ)
			probe.allHealthy += uint64(n - faulty)
			probe.screened += uint64(faulty)
			var fail uint64
			if occ != 0 {
				cols := tb.Cols()
				for x := 0; x < w; x++ {
					below := cols[firstSpare*w+x]
					for id := (firstSpare-1)*w + x; id >= 0; id -= w {
						if used[id] {
							fail |= cols[id] & below
						}
						below |= cols[id]
					}
				}
			}
			return n - bits.OnesCount64(fail), nil
		}, nil
	}, nil
}

// YieldModelContext is YieldContext under an explicit spatial defect model:
// the zero model reproduces YieldContext's independent Bernoulli failures,
// and the clustered model draws hexagonal-ring clusters targeting the same
// expected defect density (1−p)·N, so the two models are comparable
// point-for-point along the p axis. The chunk-seeded kernel keeps either
// estimate deterministic in (Seed, Runs) regardless of Workers.
func (mc *MonteCarlo) YieldModelContext(ctx context.Context, arr *layout.Array, p float64, model defects.Model) (Result, error) {
	if math.IsNaN(p) || p < 0 || p > 1 {
		return Result{}, fmt.Errorf("yieldsim: survival probability %v outside [0,1]", p)
	}
	if err := model.Validate(); err != nil {
		return Result{}, err
	}
	return mc.run(ctx, mc.localTrials(arr, modelInjection(arr, p, model)))
}

// injectFunc fills a trial batch with n ≤ 64 trials of one fault
// distribution, or returns an error before any draw.
type injectFunc func(in *defects.Injector, n int, b *defects.TrialBatch) error

// modelInjection is the injection of YieldModelContext: i.i.d. Bernoulli
// faults at survival probability p, or center-seeded clusters targeting the
// same expected defect density.
func modelInjection(arr *layout.Array, p float64, model defects.Model) injectFunc {
	numCells := arr.NumCells()
	if !model.Clustered {
		return func(in *defects.Injector, n int, b *defects.TrialBatch) error {
			in.BernoulliBatch(numCells, p, n, b)
			return nil
		}
	}
	cp := model.Params(p, numCells)
	return func(in *defects.Injector, n int, b *defects.TrialBatch) error {
		_, err := in.ClusteredBatch(arr, cp, n, b)
		return err
	}
}

// fixedCountInjection is the injection of YieldFixedFaults: exactly m
// faults per trial, drawn uniformly from the domain.
func fixedCountInjection(arr *layout.Array, m int, domain defects.Domain) injectFunc {
	return func(in *defects.Injector, n int, b *defects.TrialBatch) error {
		return in.FixedCountBatch(arr, m, domain, n, b)
	}
}

// localTrials is the factory of the local-reconfiguration trial program,
// the one program behind both defect models and fixed-count injection:
// inject a word of trials, screen the all-healthy trials with one
// popcount, settle the rest with the session's word-parallel peeling
// Screen, and run the matcher on its core only (feasBatchVerdicts). Each
// worker owns its batch and session; after the factory's one-time
// construction the trial path is allocation-free (pinned by the allocs
// regression tests).
func (mc *MonteCarlo) localTrials(arr *layout.Array, inject injectFunc) trialFactory {
	opts := mc.sessionOptions()
	return func(probe *kernelProbe) (batchFunc, error) {
		sess, err := reconfig.NewSession(arr, opts)
		if err != nil {
			return nil, err
		}
		tb := defects.NewTrialBatch(arr.NumCells())
		return func(in *defects.Injector, n int) (int, error) {
			if err := inject(in, n, tb); err != nil {
				return 0, err
			}
			return feasBatchVerdicts(tb, sess, probe, n)
		}, nil
	}
}
