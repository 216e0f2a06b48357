package yieldsim

// Allocation-budget regression tests for the Monte-Carlo trial path. The
// kernel's throughput contract (DESIGN.md "kernel performance") is that a
// steady-state trial — inject faults, decide reconfiguration feasibility —
// performs zero heap allocations for every strategy. These tests pin that
// with testing.AllocsPerRun directly on the per-worker trial closures, so a
// future change that sneaks a map, slice growth, or closure allocation back
// into the hot loop fails loudly here rather than silently costing 25,000
// allocs per kernel op again.

import (
	"context"
	"runtime"
	"testing"

	"dmfb/internal/defects"
	"dmfb/internal/layout"
	"dmfb/internal/sqgrid"
)

// assertZeroAllocTrials pins a factory's steady state to zero heap
// allocations per 64-trial word: one measured run covers injection, the
// all-healthy screen, the transpose, and every feasibility verdict. The
// program is warmed first so its scratch (trial batch, session, injector
// pool) has reached its steady size.
func assertZeroAllocTrials(t *testing.T, name string, factory trialFactory) {
	t.Helper()
	in := defects.NewInjector(1)
	var probe kernelProbe
	batch, err := factory(&probe)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := batch(in, defects.WordTrials); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(300, func() {
		if _, err := batch(in, defects.WordTrials); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("%s: steady-state trial allocates %.1f times per run, want 0", name, allocs)
	}
}

// TestSteadyStateTrialsZeroAllocs pins every production trial program — the
// local program under both defect models and fixed-count injection in
// both domains, on parallelogram and hex arrays, and the shifted column
// walk — to zero allocations per steady-state trial.
func TestSteadyStateTrialsZeroAllocs(t *testing.T) {
	local, err := layout.BuildWithPrimaryTarget(layout.DTMB26(), 100)
	if err != nil {
		t.Fatal(err)
	}
	hex, err := layout.BuildHexagonWithPrimaryTarget(layout.DTMB26(), 100)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := sqgrid.PlacementWithPrimaryTarget(100, 2)
	if err != nil {
		t.Fatal(err)
	}
	mc := NewMonteCarlo(1)
	shifted, err := mc.shiftedTrials(pl, 0.95, defects.Model{})
	if err != nil {
		t.Fatal(err)
	}
	shiftedClustered, err := mc.shiftedTrials(pl, 0.95, defects.Model{Clustered: true, ClusterSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	clustered := defects.Model{Clustered: true, ClusterSize: 4}
	cases := []struct {
		name    string
		factory trialFactory
	}{
		{"local/bernoulli", mc.localTrials(local, modelInjection(local, 0.95, defects.Model{}))},
		{"local/bernoulli-scan-side", mc.localTrials(local, modelInjection(local, 0.85, defects.Model{}))},
		{"hex/bernoulli", mc.localTrials(hex, modelInjection(hex, 0.95, defects.Model{}))},
		{"hex/clustered", mc.localTrials(hex, modelInjection(hex, 0.95, clustered))},
		{"local/fixed-count", mc.localTrials(local, fixedCountInjection(local, 12, defects.AllCells))},
		{"local/fixed-count-primaries-only", mc.localTrials(local, fixedCountInjection(local, 12, defects.PrimariesOnly))},
		{"shifted/bernoulli", shifted},
		{"shifted/clustered", shiftedClustered},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { assertZeroAllocTrials(t, tc.name, tc.factory) })
	}
}

// TestEstimateSetupBytes pins what one whole estimate allocates: the
// worker's session, trial batch and injector plus the scheduler's fold.
// At p = 0.95 and 256 trials on a 100-primary array that set-up dominates,
// so a per-worker cache or arena grown back into the kernel fails here.
func TestEstimateSetupBytes(t *testing.T) {
	const (
		estimates = 20
		maxBytes  = 32 << 10
	)
	local, err := layout.BuildWithPrimaryTarget(layout.DTMB26(), 100)
	if err != nil {
		t.Fatal(err)
	}
	hex, err := layout.BuildHexagonWithPrimaryTarget(layout.DTMB26(), 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		arr  *layout.Array
	}{{"local", local}, {"hex", hex}} {
		mc := NewMonteCarlo(1)
		mc.Workers = 1
		mc.Runs = 256
		if _, err := mc.Yield(tc.arr, 0.95); err != nil { // warm-up
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < estimates; i++ {
			if _, err := mc.Yield(tc.arr, 0.95); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / estimates
		t.Logf("%s: %d bytes per estimate", tc.name, per)
		if per > maxBytes {
			t.Errorf("%s: one estimate allocates %d bytes, want <= %d", tc.name, per, maxBytes)
		}
	}
}

// TestYieldWorkersShareNothingButArray runs the session-per-worker kernel
// with several workers over one shared array and asserts the estimate is
// bit-identical to the single-worker run. Under `go test -race` (the CI
// default) this also proves the workers' sessions, fault sets, and
// injectors are truly unshared.
func TestYieldWorkersShareNothingButArray(t *testing.T) {
	arr, err := layout.BuildHexagonWithPrimaryTarget(layout.DTMB26(), 100)
	if err != nil {
		t.Fatal(err)
	}
	base := NewMonteCarlo(42)
	base.Runs = 2000
	base.Workers = 1
	want, err := base.YieldContext(context.Background(), arr, 0.93)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		mc := NewMonteCarlo(42)
		mc.Runs = 2000
		mc.Workers = workers
		got, err := mc.YieldContext(context.Background(), arr, 0.93)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("workers=%d: %+v != single-worker %+v", workers, got, want)
		}
	}
}

// TestFixedFaultsSessionMatchesReference pins the fixed-count estimator to a
// non-degenerate, repeatable Result for a fixed seed. The trial-by-trial
// comparison with the scalar FixedCount + Session.Feasible reference is
// TestDifferentialBatchMatchesScalar's fixed-count rows.
func TestFixedFaultsSessionMatchesReference(t *testing.T) {
	arr, err := layout.BuildWithPrimaryTarget(layout.DTMB26(), 60)
	if err != nil {
		t.Fatal(err)
	}
	mc := NewMonteCarlo(11)
	mc.Runs = 1500
	res, err := mc.YieldFixedFaults(arr, 9, defects.AllCells)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 1500 || res.Successes == 0 || res.Successes == res.Runs {
		t.Fatalf("degenerate fixed-faults result %+v", res)
	}
	again, err := mc.YieldFixedFaults(arr, 9, defects.AllCells)
	if err != nil {
		t.Fatal(err)
	}
	if res != again {
		t.Fatalf("fixed-faults estimate not deterministic: %+v then %+v", res, again)
	}
}
