package yieldsim

// Fault-count stratification for the Bernoulli defect model. With every
// cell failing i.i.d. with probability q = 1−p, the number of faults K is
// Binomial(n, q), and conditioned on K = k the faulty cells are a uniform
// k-subset — exactly the distribution FixedCount draws. Yield therefore
// decomposes as
//
//	Y = Σ_k P(K = k) · P(feasible | K = k),
//
// with the weights P(K = k) computed analytically (stats.BinomialWeights)
// and only the conditional feasibilities estimated by simulation. The k = 0
// stratum — the overwhelming mass at production-realistic p — is free: zero
// faults are always feasible. At p = 0.999 on a 1000-cell array, direct
// Bernoulli sampling spends ~37% of its trials on all-healthy draws and
// almost never sees k ≥ 4; stratification spends its whole budget on the
// rare fault patterns that actually decide the answer.

import (
	"context"
	"fmt"
	"math"

	"dmfb/internal/defects"
	"dmfb/internal/layout"
	"dmfb/internal/stats"
)

// DefaultStratumTail is the Binomial upper-tail mass beyond which strata are
// not simulated. The truncated tail is accounted conservatively: it is added
// in full to the upper confidence bound, never to the point estimate.
const DefaultStratumTail = 1e-6

// StratumResult is one simulated stratum of a stratified estimate.
type StratumResult struct {
	// K is the conditioned fault count.
	K int
	// Weight is the analytic probability P(K = k).
	Weight float64
	// Result is the Monte-Carlo estimate of P(feasible | K = k). For the
	// k = 0 stratum it is the analytic certainty {Yield: 1, Runs: 0}.
	Result Result
}

// StratifiedResult is the analytic combination of per-stratum estimates.
type StratifiedResult struct {
	// Yield is Σ Weight·Result.Yield over the simulated strata.
	Yield float64
	// CILo and CIHi bracket Yield with the weighted sum of the per-stratum
	// Wilson half-widths — conservative, since independent stratum errors
	// partially cancel — and CIHi additionally absorbs the full truncated
	// TailWeight. Centering on Yield (not on the weighted Wilson centers,
	// which are shifted toward 1/2) keeps the interval an honest bracket of
	// the point estimate.
	CILo, CIHi float64
	// Runs is the total number of Monte-Carlo trials across all strata —
	// the realized simulation cost of the estimate.
	Runs int
	// TailWeight is the Binomial mass of the unsimulated strata.
	TailWeight float64
	// Strata holds the per-stratum breakdown, ordered by K.
	Strata []StratumResult
}

// StratifiedYield estimates reconfigurable yield under the Bernoulli model
// by fault-count stratification (see the package comment above).
func (mc *MonteCarlo) StratifiedYield(arr *layout.Array, p float64) (StratifiedResult, error) {
	return mc.StratifiedYieldContext(context.Background(), arr, p)
}

// StratifiedYieldContext is StratifiedYield with cancellation.
func (mc *MonteCarlo) StratifiedYieldContext(ctx context.Context, arr *layout.Array, p float64) (StratifiedResult, error) {
	if math.IsNaN(p) || p < 0 || p > 1 {
		return StratifiedResult{}, fmt.Errorf("yieldsim: survival probability %v outside [0,1]", p)
	}
	return mc.stratified(ctx, arr.NumCells(), 1-p, func(k int) trialFactory {
		return mc.fixedFaultsTrials(arr, k, defects.AllCells)
	})
}

// StratifiedNoRedundancyMC estimates the no-redundancy yield by fault-count
// stratification. Its combined estimate equals NoRedundancy(p, nPrimary)
// exactly up to stratum sampling noise, which makes it the cheap
// cross-validation target for the stratification machinery itself.
func (mc *MonteCarlo) StratifiedNoRedundancyMC(arr *layout.Array, p float64) (StratifiedResult, error) {
	return mc.StratifiedNoRedundancyMCContext(context.Background(), arr, p)
}

// StratifiedNoRedundancyMCContext is StratifiedNoRedundancyMC with
// cancellation.
func (mc *MonteCarlo) StratifiedNoRedundancyMCContext(ctx context.Context, arr *layout.Array, p float64) (StratifiedResult, error) {
	if math.IsNaN(p) || p < 0 || p > 1 {
		return StratifiedResult{}, fmt.Errorf("yieldsim: survival probability %v outside [0,1]", p)
	}
	return mc.stratified(ctx, arr.NumCells(), 1-p, func(k int) trialFactory {
		return mc.noRedundancyFixedTrials(arr, k)
	})
}

// noRedundancyFixedTrials is the fixed-fault-count form of the baseline
// trial: exactly m faults drawn uniformly over all cells, survival iff none
// of them is a primary. No session and no matcher, matching
// noRedundancyTrials.
func (mc *MonteCarlo) noRedundancyFixedTrials(arr *layout.Array, m int) trialFactory {
	return func(probe *kernelProbe) (batchFunc, error) {
		fs := defects.NewFaultSet(arr.NumCells())
		return perTrial(func(in *defects.Injector) (bool, error) {
			next, err := in.FixedCount(arr, m, defects.AllCells, fs)
			if err != nil {
				return false, err
			}
			fs = next
			if fs.Count() == 0 {
				probe.allHealthy++
			}
			return !fs.AnyFaultyPrimary(arr), nil
		}), nil
	}
}

// stratified runs the per-stratum estimates and combines them analytically.
// Stratum k gets its own seed from the estimate's seed stream and otherwise
// inherits the full MonteCarlo configuration, so a precision-targeted mc
// (Epsilon > 0) adaptively sizes every stratum independently. Determinism
// carries over: the combined estimate is a pure function of the MonteCarlo
// parameters, never of worker scheduling.
func (mc *MonteCarlo) stratified(ctx context.Context, n int, q float64, factory func(k int) trialFactory) (StratifiedResult, error) {
	weights, tail := stats.BinomialWeights(n, q, DefaultStratumTail)
	seeds := stats.SeedStream(mc.Seed, len(weights))
	out := StratifiedResult{TailWeight: tail, Strata: make([]StratumResult, 0, len(weights))}
	half := 0.0
	for k, w := range weights {
		sr := StratumResult{K: k, Weight: w}
		if k == 0 {
			// Zero faults: feasible with certainty, no simulation needed.
			sr.Result = Result{Yield: 1, CILo: 1, CIHi: 1}
		} else {
			smc := *mc
			smc.Seed = seeds[k]
			res, err := smc.run(ctx, factory(k))
			if err != nil {
				return StratifiedResult{}, fmt.Errorf("stratum k=%d: %w", k, err)
			}
			sr.Result = res
			out.Runs += res.Runs
			half += w * stats.Proportion{Successes: res.Successes, Trials: res.Runs}.Wilson95Half()
		}
		out.Yield += w * sr.Result.Yield
		out.Strata = append(out.Strata, sr)
	}
	// Bracket the point estimate with the weighted per-stratum half-widths;
	// the truncated tail could in principle be all-feasible, so it belongs
	// in the upper bound only.
	out.CILo = out.Yield - half
	out.CIHi = out.Yield + half + tail
	if out.CILo < 0 {
		out.CILo = 0
	}
	if out.CIHi > 1 {
		out.CIHi = 1
	}
	return out, nil
}
