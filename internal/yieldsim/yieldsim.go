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
// equal footing in parameter sweeps. HexYieldContext runs the kernel over
// DTMB arrays instantiated on a regular hexagonal chip footprint, and the
// *ModelContext variants evaluate any of these under an explicit spatial
// defect model (independent Bernoulli or clustered, defects.Model).
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
	"runtime"

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
	// Workers bounds parallelism; 0 means GOMAXPROCS.
	Workers int
	// ChunkSize is the number of trials per scheduler work unit; 0 means
	// DefaultChunkSize. Each chunk owns a PRNG stream derived from Seed, so
	// an estimate is deterministic in (Seed, Runs, ChunkSize) — independent
	// of Workers and of goroutine scheduling.
	ChunkSize int
	// Scope and Used configure the repair criterion (default: RepairAll).
	Scope reconfig.Scope
	Used  []bool
	// Epsilon, when positive, makes the estimate precision-targeted: trials
	// run in the usual chunk-seeded order, but the estimate stops as soon as
	// the Wilson 95% half-width over the deterministic prefix of completed
	// chunks reaches Epsilon, with Runs as the trial budget. The stopping
	// rule is evaluated in chunk-index order regardless of which worker
	// finishes a chunk first, so the realized trial count — and therefore the
	// estimate — is deterministic in (Seed, Epsilon, Runs, ChunkSize),
	// independent of Workers and GOMAXPROCS. Zero (the default) never stops
	// early: the estimate runs all Runs trials.
	Epsilon float64
	// Metrics, when non-nil, receives kernel observations: trials, the
	// all-healthy fast-path and matcher-invocation split, and per-chunk
	// wall time. Workers accumulate in plain per-worker probes and flush
	// once per chunk, so the steady-state trial path stays allocation- and
	// atomic-free (pinned by the allocs regression tests). nil disables
	// instrumentation entirely.
	Metrics *telemetry.KernelMetrics
	// Logger, when non-nil and enabled at debug, emits one kernel_chunk
	// span event per completed chunk carrying the trace ID found in the
	// run's context (telemetry.TraceID) — the link between a slow HTTP
	// request and the exact chunks that served it. Info and above emit
	// nothing, so production logging costs one Enabled check per estimate.
	Logger *slog.Logger

	// forceScalar runs trials one at a time through the scalar injection
	// path instead of 64-per-word batches, and noMemo disables feasibility
	// memoization. Both are test-only knobs: the differential suite flips
	// them to pin batched == scalar estimates and memoized == direct
	// verdicts. The batch path consumes the identical PRNG stream as the
	// scalar path (trial-major, cell-minor — see defects.BernoulliBatch),
	// so the knobs never change an estimate, only the machinery behind it.
	forceScalar bool
	noMemo      bool
}

// NewMonteCarlo returns a simulator with the paper's defaults (10000 runs).
func NewMonteCarlo(seed int64) *MonteCarlo {
	return &MonteCarlo{Runs: 10000, Seed: seed}
}

// workerCount resolves the worker pool size.
func (mc *MonteCarlo) workerCount() int {
	if mc.Workers > 0 {
		return mc.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// chunkSize resolves the scheduler work-unit size.
func (mc *MonteCarlo) chunkSize() int {
	if mc.ChunkSize > 0 {
		return mc.ChunkSize
	}
	return DefaultChunkSize
}

// sessionOptions assembles the reconfiguration options of the simulator's
// repair criterion.
func (mc *MonteCarlo) sessionOptions() reconfig.Options {
	return reconfig.Options{Scope: mc.Scope, Used: mc.Used}
}

// enableMemo arms feasibility memoization on a worker's session when the
// array is small enough and the simulator hasn't opted out, pointing the
// hit/miss counters at the worker's probe. On large arrays EnableMemo
// refuses and the session simply solves every query.
func (mc *MonteCarlo) enableMemo(sess *reconfig.Session, probe *kernelProbe) {
	if mc.noMemo {
		return
	}
	if sess.EnableMemo(reconfig.DefaultMemoCapacity) {
		sess.SetMemoCounters(&probe.memoHits, &probe.memoMisses)
	}
}

// feasBatchVerdicts scores one injected batch: all-healthy trials (clear
// bits of the occupied mask) succeed without any feasibility machinery;
// the rest are transposed into per-trial fault words and judged by the
// session, word layout to word layout with no FaultSet in between.
func feasBatchVerdicts(b *defects.TrialBatch, sess *reconfig.Session, probe *kernelProbe, n int) (int, error) {
	occ := b.Occupied()
	healthy := n - bits.OnesCount64(occ)
	probe.allHealthy += uint64(healthy)
	successes := healthy
	if occ == 0 {
		return successes, nil
	}
	b.Finalize()
	for m := occ; m != 0; m &= m - 1 {
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
	if math.IsNaN(p) || p < 0 || p > 1 {
		return Result{}, fmt.Errorf("yieldsim: survival probability %v outside [0,1]", p)
	}
	return mc.run(ctx, mc.yieldTrials(arr, p))
}

// yieldTrials is the factory of the steady-state Bernoulli trial program:
// inject i.i.d. faults 64 trials per machine word, screen the all-healthy
// trials with one popcount, and ask the worker's (memoizing) session for a
// word-parallel feasibility verdict on the rest. Each worker owns its
// batch and session; after the factory's one-time construction the trial
// path is allocation-free (pinned by the allocs regression tests). The
// scalar program behind forceScalar draws the identical PRNG stream and
// produces the identical estimate.
func (mc *MonteCarlo) yieldTrials(arr *layout.Array, p float64) trialFactory {
	opts := mc.sessionOptions()
	numCells := arr.NumCells()
	return func(probe *kernelProbe) (batchFunc, error) {
		sess, err := reconfig.NewSession(arr, opts)
		if err != nil {
			return nil, err
		}
		mc.enableMemo(sess, probe)
		if mc.forceScalar {
			fs := defects.NewFaultSet(numCells)
			return perTrial(func(in *defects.Injector) (bool, error) {
				fs = in.Bernoulli(arr, p, fs)
				if fs.Count() == 0 {
					probe.allHealthy++
				} else {
					probe.matcher++
				}
				return sess.Feasible(fs)
			}), nil
		}
		tb := defects.NewTrialBatch(numCells)
		return func(in *defects.Injector, runs int) (int, error) {
			successes := 0
			for off := 0; off < runs; off += defects.WordTrials {
				n := runs - off
				if n > defects.WordTrials {
					n = defects.WordTrials
				}
				in.BernoulliBatch(numCells, p, n, tb)
				s, err := feasBatchVerdicts(tb, sess, probe, n)
				if err != nil {
					return 0, err
				}
				successes += s
			}
			return successes, nil
		}, nil
	}
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
	return mc.run(ctx, mc.fixedFaultsTrials(arr, m, domain))
}

// fixedFaultsTrials is the factory of the fixed-count trial: exactly m
// faults per draw (from the injector's cached pool), then a session
// verdict. The draw has no batched form (partial Fisher–Yates is
// inherently per-trial), but the session still memoizes: with m small the
// pattern space is tiny and repeats are the common case.
func (mc *MonteCarlo) fixedFaultsTrials(arr *layout.Array, m int, domain defects.Domain) trialFactory {
	opts := mc.sessionOptions()
	return func(probe *kernelProbe) (batchFunc, error) {
		sess, err := reconfig.NewSession(arr, opts)
		if err != nil {
			return nil, err
		}
		mc.enableMemo(sess, probe)
		fs := defects.NewFaultSet(arr.NumCells())
		return perTrial(func(in *defects.Injector) (bool, error) {
			next, err := in.FixedCount(arr, m, domain, fs)
			if err != nil {
				return false, err
			}
			fs = next
			if fs.Count() == 0 {
				probe.allHealthy++
			} else {
				probe.matcher++
			}
			return sess.Feasible(fs)
		}), nil
	}
}

// NoRedundancyMC estimates the no-redundancy yield by simulation (all n
// working cells must survive). It exists to cross-check NoRedundancy.
func (mc *MonteCarlo) NoRedundancyMC(arr *layout.Array, p float64) (Result, error) {
	return mc.NoRedundancyMCContext(context.Background(), arr, p)
}

// NoRedundancyMCContext is NoRedundancyMC with cancellation.
func (mc *MonteCarlo) NoRedundancyMCContext(ctx context.Context, arr *layout.Array, p float64) (Result, error) {
	if math.IsNaN(p) || p < 0 || p > 1 {
		return Result{}, fmt.Errorf("yieldsim: survival probability %v outside [0,1]", p)
	}
	return mc.run(ctx, mc.noRedundancyTrials(arr, p))
}

// noRedundancyTrials is the factory of the baseline trial program: the
// chip survives iff no primary is faulty. The batched form screens healthy
// trials on the occupied mask and settles the rest with one AND against a
// shared read-only primary bitset — no matcher, no session, no FaultSet.
func (mc *MonteCarlo) noRedundancyTrials(arr *layout.Array, p float64) trialFactory {
	numCells := arr.NumCells()
	primaryMask := make([]uint64, (numCells+63)/64) // read-only across workers
	for _, id := range arr.Primaries() {
		primaryMask[id>>6] |= uint64(1) << (uint(id) & 63)
	}
	return func(probe *kernelProbe) (batchFunc, error) {
		if mc.forceScalar {
			fs := defects.NewFaultSet(numCells)
			return perTrial(func(in *defects.Injector) (bool, error) {
				fs = in.Bernoulli(arr, p, fs)
				if fs.Count() == 0 {
					probe.allHealthy++
				}
				return !fs.AnyFaultyPrimary(arr), nil
			}), nil
		}
		tb := defects.NewTrialBatch(numCells)
		return func(in *defects.Injector, runs int) (int, error) {
			successes := 0
			for off := 0; off < runs; off += defects.WordTrials {
				n := runs - off
				if n > defects.WordTrials {
					n = defects.WordTrials
				}
				in.BernoulliBatch(numCells, p, n, tb)
				occ := tb.Occupied()
				healthy := n - bits.OnesCount64(occ)
				probe.allHealthy += uint64(healthy)
				successes += healthy
				if occ == 0 {
					continue
				}
				tb.Finalize()
				for m := occ; m != 0; m &= m - 1 {
					row := tb.Row(bits.TrailingZeros64(m))
					primaryFault := false
					for w, pm := range primaryMask {
						if row[w]&pm != 0 {
							primaryFault = true
							break
						}
					}
					if !primaryFault {
						successes++
					}
				}
			}
			return successes, nil
		}, nil
	}
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
// per-worker trial factory (the column-cascade closed form plus the
// model's injector).
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
	// Under the strict scheme survival decomposes per column (cascades are
	// strictly vertical): a column with no faulty working cell is fine; one
	// with two or more fails (the shallower cascade is blocked by the deeper
	// fault); one with exactly one fault at row y survives iff every cell
	// from y+1 down to the first spare row is fault-free (any faulty cell —
	// working, unused, or spare — blocks the cascade, whose absorber is the
	// column's first spare cell). This closed form of the ShiftSession
	// semantics keeps the trial allocation-free; the equivalence is pinned
	// by a reference test against reconfig.ShiftSession.
	used := make([]bool, pl.Grid.NumCells()) // read-only across workers
	for _, c := range pl.UsedCells() {
		used[pl.Grid.Index(c)] = true
	}
	w, h := pl.Grid.W, pl.Grid.H
	firstSpare := h - pl.SpareRows
	n := pl.Grid.NumCells()
	cascadesRepairAll := func(fs *defects.FaultSet) bool {
		if fs.Count() == 0 {
			return true
		}
		for x := 0; x < w; x++ {
			faultyUsed, deepest := 0, -1
			for y := 0; y < firstSpare; y++ {
				id := layout.CellID(y*w + x)
				if used[id] && fs.IsFaulty(id) {
					faultyUsed++
					deepest = y
				}
			}
			if faultyUsed == 0 {
				continue
			}
			if faultyUsed > 1 {
				return false
			}
			for y := deepest + 1; y <= firstSpare; y++ {
				if fs.IsFaulty(layout.CellID(y*w + x)) {
					return false
				}
			}
		}
		return true
	}
	if model.Clustered {
		cp := model.Params(p, n)
		return func(probe *kernelProbe) (batchFunc, error) {
			fs := defects.NewFaultSet(n)
			return perTrial(func(in *defects.Injector) (bool, error) {
				next, _, err := in.ClusteredGrid(w, h, cp, fs)
				if err != nil {
					return false, err
				}
				fs = next
				if fs.Count() == 0 {
					probe.allHealthy++
				} else {
					probe.matcher++
				}
				return cascadesRepairAll(fs), nil
			}), nil
		}, nil
	}
	return func(probe *kernelProbe) (batchFunc, error) {
		fs := defects.NewFaultSet(n)
		return perTrial(func(in *defects.Injector) (bool, error) {
			fs = in.BernoulliN(n, p, fs)
			if fs.Count() == 0 {
				probe.allHealthy++
			} else {
				probe.matcher++
			}
			return cascadesRepairAll(fs), nil
		}), nil
	}, nil
}

// YieldModelContext is YieldContext under an explicit spatial defect model:
// the zero model reproduces YieldContext's independent Bernoulli failures,
// and the clustered model draws hexagonal-ring clusters targeting the same
// expected defect density (1−p)·N, so the two models are comparable
// point-for-point along the p axis. The chunk-seeded kernel keeps either
// estimate deterministic in (Seed, Runs, ChunkSize) regardless of Workers.
func (mc *MonteCarlo) YieldModelContext(ctx context.Context, arr *layout.Array, p float64, model defects.Model) (Result, error) {
	if !model.Clustered {
		return mc.YieldContext(ctx, arr, p)
	}
	if math.IsNaN(p) || p < 0 || p > 1 {
		return Result{}, fmt.Errorf("yieldsim: survival probability %v outside [0,1]", p)
	}
	if err := model.Validate(); err != nil {
		return Result{}, err
	}
	cp := model.Params(p, arr.NumCells())
	return mc.run(ctx, mc.clusteredTrials(arr, cp))
}

// clusteredTrials is the factory of the clustered-defect trial program:
// word-packed center-seeded cluster draws, an all-healthy popcount screen,
// then memoized session verdicts for the occupied trials.
func (mc *MonteCarlo) clusteredTrials(arr *layout.Array, cp defects.ClusterParams) trialFactory {
	opts := mc.sessionOptions()
	numCells := arr.NumCells()
	return func(probe *kernelProbe) (batchFunc, error) {
		sess, err := reconfig.NewSession(arr, opts)
		if err != nil {
			return nil, err
		}
		mc.enableMemo(sess, probe)
		if mc.forceScalar {
			fs := defects.NewFaultSet(numCells)
			return perTrial(func(in *defects.Injector) (bool, error) {
				next, _, err := in.Clustered(arr, cp, fs)
				if err != nil {
					return false, err
				}
				fs = next
				if fs.Count() == 0 {
					probe.allHealthy++
				} else {
					probe.matcher++
				}
				return sess.Feasible(fs)
			}), nil
		}
		tb := defects.NewTrialBatch(numCells)
		return func(in *defects.Injector, runs int) (int, error) {
			successes := 0
			for off := 0; off < runs; off += defects.WordTrials {
				n := runs - off
				if n > defects.WordTrials {
					n = defects.WordTrials
				}
				if _, err := in.ClusteredBatch(arr, cp, n, tb); err != nil {
					return 0, err
				}
				s, err := feasBatchVerdicts(tb, sess, probe, n)
				if err != nil {
					return 0, err
				}
				successes += s
			}
			return successes, nil
		}, nil
	}
}

// HexYield is the outcome of a hexagonal-footprint yield estimate: the
// Monte-Carlo result plus the realized cell counts of the hexagon build
// (NTotal exceeds NPrimary by the interstitial spares).
type HexYield struct {
	Result
	NPrimary, NTotal int
}

// HexYieldContext estimates the yield of design d instantiated over a
// regular hexagonal chip footprint with nPrimary primary cells
// (layout.BuildHexagonWithPrimaryTarget) under the given spatial defect
// model. Repair is the same local-reconfiguration matcher over the
// six-neighbor topology used for parallelogram arrays — the bipartite
// matching is footprint-agnostic — so differences against YieldModelContext
// at equal n isolate the boundary shape.
func (mc *MonteCarlo) HexYieldContext(ctx context.Context, d layout.Design, nPrimary int, p float64, model defects.Model) (HexYield, error) {
	arr, err := layout.BuildHexagonWithPrimaryTarget(d, nPrimary)
	if err != nil {
		return HexYield{}, err
	}
	res, err := mc.YieldModelContext(ctx, arr, p, model)
	if err != nil {
		return HexYield{}, err
	}
	return HexYield{Result: res, NPrimary: arr.NumPrimary(), NTotal: arr.NumCells()}, nil
}

// SweepPoint is one (p, yield) sample of a sweep.
type SweepPoint struct {
	P      float64
	Result Result
}

// SweepYield estimates yield across the given survival probabilities,
// returning one point per p.
func (mc *MonteCarlo) SweepYield(arr *layout.Array, ps []float64) ([]SweepPoint, error) {
	return mc.SweepYieldContext(context.Background(), arr, ps)
}

// SweepYieldContext is SweepYield with cancellation between points. A
// context that is already cancelled fails before the first point is
// evaluated (or any array work happens), not after it.
func (mc *MonteCarlo) SweepYieldContext(ctx context.Context, arr *layout.Array, ps []float64) ([]SweepPoint, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]SweepPoint, 0, len(ps))
	for _, p := range ps {
		res, err := mc.YieldContext(ctx, arr, p)
		if err != nil {
			return nil, err
		}
		out = append(out, SweepPoint{P: p, Result: res})
	}
	return out, nil
}

// SweepSeries converts sweep points to a stats.Series for tabulation.
func SweepSeries(name string, pts []SweepPoint) stats.Series {
	s := stats.Series{Name: name}
	for _, pt := range pts {
		s.Append(pt.P, pt.Result.Yield)
	}
	return s
}
