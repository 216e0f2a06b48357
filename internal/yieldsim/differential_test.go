package yieldsim

// Differential harness for the bit-parallel trial path and the feasibility
// memo. The kernel's contract is that neither optimization is observable in
// any estimate: a word-packed batch consumes the injector's PRNG stream in
// exactly the order 64 successive scalar trials would (trial-major,
// cell-minor), and the memo caches verdicts of a pure function. These tests
// pin both equivalences as bit-identical Results across every estimator
// strategy, defect model, and a spread of seeds — so a future batching or
// caching change that shifts a single draw or verdict fails here, not in a
// statistical tolerance band.

import (
	"context"
	"errors"
	"math"
	"testing"

	"dmfb/internal/defects"
	"dmfb/internal/layout"
	"dmfb/internal/sqgrid"
	"dmfb/internal/telemetry"
)

// differentialSeeds returns the seed spread: 5 seeds normally, 2 under
// -short (CI runs the full suite via `go test -run Differential -count=3`).
func differentialSeeds(t *testing.T) []int64 {
	t.Helper()
	if testing.Short() {
		return []int64{1, 42}
	}
	return []int64{1, 7, 42, 1234, 987654321}
}

// estimatorCase is one (strategy, defect model) cell of the differential
// matrix, evaluated under a configured MonteCarlo.
type estimatorCase struct {
	name string
	eval func(mc *MonteCarlo) (Result, error)
}

// differentialCases builds the estimator matrix over the shared arrays. The
// run counts are deliberately non-multiples of 64 so the final partial word
// of every chunk is exercised.
func differentialCases(t *testing.T) []estimatorCase {
	t.Helper()
	local, err := layout.BuildWithPrimaryTarget(layout.DTMB26(), 80)
	if err != nil {
		t.Fatal(err)
	}
	hex, err := layout.BuildHexagonWithPrimaryTarget(layout.DTMB26(), 100)
	if err != nil {
		t.Fatal(err)
	}
	big, err := layout.BuildWithPrimaryTarget(layout.DTMB26(), 400)
	if err != nil {
		t.Fatal(err)
	}
	if big.NumCells() <= 256 {
		t.Fatalf("big array has %d cells, want > 256 to cover the memo-refused path", big.NumCells())
	}
	pl, err := sqgrid.PlacementWithPrimaryTarget(90, 2)
	if err != nil {
		t.Fatal(err)
	}
	clustered := defects.Model{Clustered: true, ClusterSize: 4}
	ctx := context.Background()
	return []estimatorCase{
		{"local/bernoulli", func(mc *MonteCarlo) (Result, error) {
			return mc.YieldContext(ctx, local, 0.94)
		}},
		{"local/bernoulli-high-p", func(mc *MonteCarlo) (Result, error) {
			return mc.YieldContext(ctx, local, 0.999)
		}},
		// Either side of the Bernoulli samplers' crossover at q = 0.1 in
		// package defects (skipMaxQ): per-cell scan, then skip-sampling.
		{"local/bernoulli-scan-side", func(mc *MonteCarlo) (Result, error) {
			return mc.YieldContext(ctx, local, 0.8999)
		}},
		{"local/bernoulli-skip-side", func(mc *MonteCarlo) (Result, error) {
			return mc.YieldContext(ctx, local, 0.9001)
		}},
		{"local/bernoulli-all-fail", func(mc *MonteCarlo) (Result, error) {
			return mc.YieldContext(ctx, local, 0) // q = 1
		}},
		{"local/bernoulli-nan", func(mc *MonteCarlo) (Result, error) {
			if _, err := mc.YieldContext(ctx, local, math.NaN()); err == nil {
				return Result{}, errors.New("NaN survival probability accepted")
			}
			return Result{}, nil
		}},
		{"hex/bernoulli", func(mc *MonteCarlo) (Result, error) {
			return mc.YieldContext(ctx, hex, 0.93)
		}},
		{"hex/clustered", func(mc *MonteCarlo) (Result, error) {
			return mc.YieldModelContext(ctx, hex, 0.95, clustered)
		}},
		{"big/bernoulli-memo-refused", func(mc *MonteCarlo) (Result, error) {
			return mc.YieldContext(ctx, big, 0.97)
		}},
		{"local/no-redundancy", func(mc *MonteCarlo) (Result, error) {
			return mc.NoRedundancyMC(local, 0.94)
		}},
		{"local/fixed-count", func(mc *MonteCarlo) (Result, error) {
			return mc.YieldFixedFaults(local, 9, defects.AllCells)
		}},
		{"shifted/bernoulli", func(mc *MonteCarlo) (Result, error) {
			return mc.ShiftedYield(pl, 0.94)
		}},
		{"shifted/bernoulli-scan-side", func(mc *MonteCarlo) (Result, error) {
			return mc.ShiftedYield(pl, 0.8999)
		}},
		{"shifted/clustered", func(mc *MonteCarlo) (Result, error) {
			return mc.ShiftedYieldModelContext(ctx, pl, 0.95, clustered)
		}},
	}
}

// configure builds a MonteCarlo for one differential run. A worker count
// > 1 rides along on alternating seeds so the chunk-parallel scheduler sits
// under the equivalence.
func configureDifferential(seed int64, i int) *MonteCarlo {
	mc := NewMonteCarlo(seed)
	mc.Runs = 900 // 3 chunks of 256 + a 132-trial tail
	mc.ChunkSize = 256
	if i%2 == 1 {
		mc.Workers = 4
	}
	return mc
}

// TestDifferentialBatchMatchesScalar pins the tentpole equivalence: the
// word-packed batch path and the scalar reference path produce bit-identical
// Results for every (strategy, defect model, seed, sampler, workers) cell.
func TestDifferentialBatchMatchesScalar(t *testing.T) {
	cases := differentialCases(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for i, seed := range differentialSeeds(t) {
				batch := configureDifferential(seed, i)
				got, err := tc.eval(batch)
				if err != nil {
					t.Fatal(err)
				}
				ref := configureDifferential(seed, i)
				ref.forceScalar = true
				want, err := tc.eval(ref)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("seed %d: batch %+v != scalar %+v", seed, got, want)
				}
			}
		})
	}
}

// TestDifferentialMemoDoesNotChangeEstimates pins the memo's transparency:
// disabling feasibility memoization changes no Result bit on either the
// batch or the scalar path.
func TestDifferentialMemoDoesNotChangeEstimates(t *testing.T) {
	cases := differentialCases(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for i, seed := range differentialSeeds(t) {
				for _, scalar := range []bool{false, true} {
					memo := configureDifferential(seed, i)
					memo.forceScalar = scalar
					got, err := tc.eval(memo)
					if err != nil {
						t.Fatal(err)
					}
					bare := configureDifferential(seed, i)
					bare.forceScalar = scalar
					bare.noMemo = true
					want, err := tc.eval(bare)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("seed %d scalar=%v: memoized %+v != unmemoized %+v",
							seed, scalar, got, want)
					}
				}
			}
		})
	}
}

// TestDifferentialWorkerByteIdentity extends the share-nothing pin to the
// batch+memo kernel under the clustered model: the estimate is a function of
// (Seed, Runs, ChunkSize) only, never of Workers, even though each worker
// owns a private memo whose hit pattern depends on its chunk assignment.
func TestDifferentialWorkerByteIdentity(t *testing.T) {
	hex, err := layout.BuildHexagonWithPrimaryTarget(layout.DTMB26(), 100)
	if err != nil {
		t.Fatal(err)
	}
	model := defects.Model{Clustered: true, ClusterSize: 4}
	base := NewMonteCarlo(42)
	base.Runs = 2000
	base.Workers = 1
	want, err := base.YieldModelContext(context.Background(), hex, 0.95, model)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		mc := NewMonteCarlo(42)
		mc.Runs = 2000
		mc.Workers = workers
		got, err := mc.YieldModelContext(context.Background(), hex, 0.95, model)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("workers=%d: %+v != single-worker %+v", workers, got, want)
		}
	}
}

// TestMemoCountersAccounting checks the memo telemetry identities on a
// memoizable array: every matcher-path decision is either a hit or a miss
// (hits + misses == matcher invocations), and at high survival probability
// the hit rate dominates — the regime the memo exists for.
func TestMemoCountersAccounting(t *testing.T) {
	arr, err := layout.BuildWithPrimaryTarget(layout.DTMB26(), 80)
	if err != nil {
		t.Fatal(err)
	}
	r := telemetry.NewRegistry()
	mc := NewMonteCarlo(5)
	mc.Runs = 4000
	mc.Metrics = telemetry.NewKernelMetrics(r)
	if _, err := mc.Yield(arr, 0.998); err != nil {
		t.Fatal(err)
	}
	m := mc.Metrics
	hits, misses := m.MemoHits.Value(), m.MemoMisses.Value()
	matcher := m.MatcherInvocations.Value()
	if hits+misses != matcher {
		t.Errorf("memo hits %d + misses %d != matcher invocations %d", hits, misses, matcher)
	}
	if matcher == 0 {
		t.Fatal("no faulty trials at p=0.998 with 4000 runs; raise Runs")
	}
	if hits <= misses {
		t.Errorf("memo hits %d <= misses %d at p=0.998; expected hit-dominated", hits, misses)
	}

	// A >MemoMaxCells array refuses the memo: counters stay zero while the
	// matcher still runs.
	big, err := layout.BuildWithPrimaryTarget(layout.DTMB26(), 400)
	if err != nil {
		t.Fatal(err)
	}
	r2 := telemetry.NewRegistry()
	mc2 := NewMonteCarlo(5)
	mc2.Runs = 1000
	mc2.Metrics = telemetry.NewKernelMetrics(r2)
	if _, err := mc2.Yield(big, 0.95); err != nil {
		t.Fatal(err)
	}
	if h, ms := mc2.Metrics.MemoHits.Value(), mc2.Metrics.MemoMisses.Value(); h != 0 || ms != 0 {
		t.Errorf("memo counters %d/%d on a %d-cell array, want 0/0 (memo refused)",
			h, ms, big.NumCells())
	}
	if mc2.Metrics.MatcherInvocations.Value() == 0 {
		t.Error("matcher invocations = 0 on the big array")
	}
}
