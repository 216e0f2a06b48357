package yieldsim

// Differential harness for the bit-parallel trial path. The kernel's
// contract is that batching is not observable in any estimate: a
// word-packed batch consumes the injector's PRNG stream in exactly the
// order 64 successive scalar trials would (trial-major, cell-minor). These
// tests pin that equivalence as bit-identical Results across every
// estimator strategy, defect model, and a spread of seeds — so a future
// batching change that shifts a single draw or verdict fails here, not in
// a statistical tolerance band. The scalar side is a test-only reference:
// trial programs handed to mc.run that draw one FaultSet per trial and ask
// Session.Feasible for the verdict.

import (
	"context"
	"errors"
	"math"
	"testing"

	"dmfb/internal/defects"
	"dmfb/internal/layout"
	"dmfb/internal/reconfig"
	"dmfb/internal/sqgrid"
)

// perTrial adapts a one-trial-per-call body to a batchFunc: a reference
// program runs its word's n trials one at a time.
func perTrial(trial func(in *defects.Injector) (bool, error)) batchFunc {
	return func(in *defects.Injector, n int) (int, error) {
		successes := 0
		for i := 0; i < n; i++ {
			ok, err := trial(in)
			if err != nil {
				return 0, err
			}
			if ok {
				successes++
			}
		}
		return successes, nil
	}
}

// scalarDraw is the one-trial form of an injection: it refills fs with the
// next trial's faults.
type scalarDraw func(in *defects.Injector, fs *defects.FaultSet) (*defects.FaultSet, error)

// scalarTrials is the reference of localTrials: each trial draws a FaultSet
// with the scalar injector and the session decides it with Feasible — no
// batch, no screen, no transpose.
func scalarTrials(mc *MonteCarlo, arr *layout.Array, draw scalarDraw) trialFactory {
	return func(*kernelProbe) (batchFunc, error) {
		sess, err := reconfig.NewSession(arr, mc.sessionOptions())
		if err != nil {
			return nil, err
		}
		fs := defects.NewFaultSet(arr.NumCells())
		return perTrial(func(in *defects.Injector) (bool, error) {
			next, err := draw(in, fs)
			if err != nil {
				return false, err
			}
			fs = next
			return sess.Feasible(fs)
		}), nil
	}
}

// scalarModelTrials is the reference program of YieldModelContext.
func scalarModelTrials(mc *MonteCarlo, arr *layout.Array, p float64, model defects.Model) trialFactory {
	cp := model.Params(p, arr.NumCells())
	return scalarTrials(mc, arr, func(in *defects.Injector, fs *defects.FaultSet) (*defects.FaultSet, error) {
		if model.Clustered {
			next, _, err := in.Clustered(arr, cp, fs)
			return next, err
		}
		return in.Bernoulli(arr, p, fs), nil
	})
}

// scalarFixedTrials is the reference program of YieldFixedFaults.
func scalarFixedTrials(mc *MonteCarlo, arr *layout.Array, m int, domain defects.Domain) trialFactory {
	return scalarTrials(mc, arr, func(in *defects.Injector, fs *defects.FaultSet) (*defects.FaultSet, error) {
		return in.FixedCount(arr, m, domain, fs)
	})
}

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
// matrix: the production estimate under a configured MonteCarlo, and its
// scalar reference program. A case without a reference (the shifted
// column walk, an input the estimator rejects) compares two runs of eval.
type estimatorCase struct {
	name string
	eval func(mc *MonteCarlo) (Result, error)
	ref  func(mc *MonteCarlo) trialFactory
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
		t.Fatalf("big array has %d cells, want > 256 for fault rows of more than four words", big.NumCells())
	}
	pl, err := sqgrid.PlacementWithPrimaryTarget(90, 2)
	if err != nil {
		t.Fatal(err)
	}
	// repairUsed puts every other primary of the local array out of scope.
	used := make([]bool, local.NumCells())
	for i, id := range local.Primaries() {
		used[id] = i%2 == 0
	}
	repairUsed := func(mc *MonteCarlo) *MonteCarlo {
		mc.Scope, mc.Used = reconfig.RepairUsed, used
		return mc
	}
	clustered := defects.Model{Clustered: true, ClusterSize: 4}
	ctx := context.Background()
	model := func(name string, arr *layout.Array, p float64, m defects.Model) estimatorCase {
		return estimatorCase{name,
			func(mc *MonteCarlo) (Result, error) { return mc.YieldModelContext(ctx, arr, p, m) },
			func(mc *MonteCarlo) trialFactory { return scalarModelTrials(mc, arr, p, m) }}
	}
	fixed := func(name string, arr *layout.Array, m int, domain defects.Domain) estimatorCase {
		return estimatorCase{name,
			func(mc *MonteCarlo) (Result, error) { return mc.YieldFixedFaults(arr, m, domain) },
			func(mc *MonteCarlo) trialFactory { return scalarFixedTrials(mc, arr, m, domain) }}
	}
	return []estimatorCase{
		model("local/bernoulli", local, 0.94, defects.Model{}),
		model("local/bernoulli-high-p", local, 0.999, defects.Model{}),
		// Either side of the Bernoulli samplers' crossover at q = 0.4 in
		// package defects (skipMaxQ): per-cell scan, then skip-sampling.
		model("local/bernoulli-scan-side", local, 0.5999, defects.Model{}),
		model("local/bernoulli-skip-side", local, 0.6001, defects.Model{}),
		model("local/bernoulli-all-fail", local, 0, defects.Model{}), // q = 1
		{"local/bernoulli-nan", func(mc *MonteCarlo) (Result, error) {
			if _, err := mc.YieldContext(ctx, local, math.NaN()); err == nil {
				return Result{}, errors.New("NaN survival probability accepted")
			}
			return Result{}, nil
		}, nil},
		model("hex/bernoulli", hex, 0.93, defects.Model{}),
		model("hex/clustered", hex, 0.95, clustered),
		model("big/bernoulli-memo-refused", big, 0.97, defects.Model{}),
		fixed("local/fixed-count", local, 9, defects.AllCells),
		fixed("local/fixed-count-primaries-only", local, 9, defects.PrimariesOnly),
		fixed("local/fixed-count-none", local, 0, defects.AllCells),
		fixed("big/fixed-count", big, 40, defects.AllCells),
		{"local/fixed-count-repair-used",
			func(mc *MonteCarlo) (Result, error) {
				return repairUsed(mc).YieldFixedFaults(local, 12, defects.PrimariesOnly)
			},
			func(mc *MonteCarlo) trialFactory {
				return scalarFixedTrials(repairUsed(mc), local, 12, defects.PrimariesOnly)
			}},
		// The shifted kernel has no scalar program here, so these cases pin
		// determinism only; TestShiftedYieldMatchesShiftSessionReference
		// pins the walk to scalar draws and a ShiftSession verdict.
		{"shifted/bernoulli", func(mc *MonteCarlo) (Result, error) {
			return mc.ShiftedYield(pl, 0.94)
		}, nil},
		{"shifted/bernoulli-scan-side", func(mc *MonteCarlo) (Result, error) {
			return mc.ShiftedYield(pl, 0.5999)
		}, nil},
		{"shifted/clustered", func(mc *MonteCarlo) (Result, error) {
			return mc.ShiftedYieldModelContext(ctx, pl, 0.95, clustered)
		}, nil},
	}
}

// configure builds a MonteCarlo for one differential run. A worker count
// > 1 rides along on alternating seeds so the chunk-parallel scheduler sits
// under the equivalence.
func configureDifferential(seed int64, i int) *MonteCarlo {
	mc := NewMonteCarlo(seed)
	mc.Runs = 3*DefaultChunkSize + 132 // 3 full chunks + a 132-trial tail
	if i%2 == 1 {
		mc.Workers = 4
	}
	return mc
}

// TestDifferentialBatchMatchesScalar pins the tentpole equivalence: the
// word-packed production program and its scalar reference produce
// bit-identical Results for every (strategy, defect model, seed, sampler,
// workers) cell.
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
				var want Result
				if tc.ref != nil {
					want, err = ref.run(context.Background(), tc.ref(ref))
				} else {
					want, err = tc.eval(ref)
				}
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

// TestDifferentialWorkerByteIdentity extends the share-nothing pin to the
// batch kernel under the clustered model: the estimate is a function of
// (Seed, Runs) only, never of Workers, even though each worker
// owns a private session and trial batch and serves whichever chunks it
// claims.
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
