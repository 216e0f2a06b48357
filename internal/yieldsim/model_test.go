package yieldsim

import (
	"context"
	"math"
	"testing"

	"dmfb/internal/defects"
	"dmfb/internal/layout"
	"dmfb/internal/sqgrid"
)

func clusteredModel(size float64) defects.Model {
	return defects.Model{Clustered: true, ClusterSize: size}
}

func TestYieldModelContextZeroModelMatchesYieldContext(t *testing.T) {
	arr, err := layout.BuildWithPrimaryTarget(layout.DTMB26(), 60)
	if err != nil {
		t.Fatal(err)
	}
	mc := NewMonteCarlo(9)
	mc.Runs = 600
	a, err := mc.YieldModelContext(context.Background(), arr, 0.95, defects.Model{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := mc.YieldContext(context.Background(), arr, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("zero model %+v != YieldContext %+v", a, b)
	}
}

func TestYieldModelContextClusteredDeterministicAcrossWorkers(t *testing.T) {
	arr, err := layout.BuildWithPrimaryTarget(layout.DTMB36(), 60)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) Result {
		mc := NewMonteCarlo(4)
		mc.Runs = 800
		mc.Workers = workers
		res, err := mc.YieldModelContext(context.Background(), arr, 0.94, clusteredModel(4))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := run(1), run(8); a != b {
		t.Errorf("clustered estimate differs across workers: %+v vs %+v", a, b)
	}
}

// TestClusteredYieldBelowIndependent pins the qualitative physics: at equal
// expected defect density, clusters overwhelm the local spares around their
// center, so interstitial redundancy repairs clustered faults less often
// than scattered ones.
func TestClusteredYieldBelowIndependent(t *testing.T) {
	arr, err := layout.BuildWithPrimaryTarget(layout.DTMB26(), 100)
	if err != nil {
		t.Fatal(err)
	}
	mc := NewMonteCarlo(20050307)
	mc.Runs = 3000
	ind, err := mc.YieldModelContext(context.Background(), arr, 0.95, defects.Model{})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := mc.YieldModelContext(context.Background(), arr, 0.95, clusteredModel(6))
	if err != nil {
		t.Fatal(err)
	}
	if cl.Yield >= ind.Yield {
		t.Errorf("clustered yield %.4f not below independent %.4f", cl.Yield, ind.Yield)
	}
}

func TestYieldModelContextRejectsBadInputs(t *testing.T) {
	arr, err := layout.BuildWithPrimaryTarget(layout.DTMB26(), 30)
	if err != nil {
		t.Fatal(err)
	}
	mc := NewMonteCarlo(1)
	mc.Runs = 10
	if _, err := mc.YieldModelContext(context.Background(), arr, 1.5, clusteredModel(4)); err == nil {
		t.Error("p=1.5 accepted")
	}
	if _, err := mc.YieldModelContext(context.Background(), arr, math.NaN(), clusteredModel(4)); err == nil {
		t.Error("NaN p accepted")
	}
	if _, err := mc.YieldModelContext(context.Background(), arr, 0.9, clusteredModel(0.1)); err == nil {
		t.Error("cluster size 0.1 accepted")
	}
}

func TestHexYieldContextDeterministicAndCounted(t *testing.T) {
	// A hexagonal-footprint array runs through the same kernel as a
	// parallelogram one: the estimate is worker-independent and the build
	// keeps the primary target exactly, with the interstitial spares on top.
	arr, err := layout.BuildHexagonWithPrimaryTarget(layout.DTMB26(), 80)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) Result {
		mc := NewMonteCarlo(17)
		mc.Runs = 500
		mc.Workers = workers
		res, err := mc.YieldModelContext(context.Background(), arr, 0.95, defects.Model{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(6)
	if a != b {
		t.Errorf("hex estimate differs across workers: %+v vs %+v", a, b)
	}
	if a.Runs != 500 {
		t.Errorf("Runs %d, want 500", a.Runs)
	}
	if arr.NumPrimary() != 80 {
		t.Errorf("NumPrimary %d, want 80", arr.NumPrimary())
	}
	if arr.NumCells() <= arr.NumPrimary() {
		t.Errorf("NumCells %d not above NumPrimary %d", arr.NumCells(), arr.NumPrimary())
	}
}

func TestHexYieldContextCancellation(t *testing.T) {
	arr, err := layout.BuildHexagonWithPrimaryTarget(layout.DTMB44(), 120)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	mc := NewMonteCarlo(1)
	mc.Runs = 100000
	if _, err := mc.YieldModelContext(ctx, arr, 0.9, clusteredModel(4)); err == nil {
		t.Error("cancelled context did not abort the simulation")
	}
}

func TestShiftedYieldModelContextZeroModelMatches(t *testing.T) {
	pl, err := sqgrid.PlacementWithPrimaryTarget(48, 1)
	if err != nil {
		t.Fatal(err)
	}
	mc := NewMonteCarlo(3)
	mc.Runs = 600
	a, err := mc.ShiftedYieldContext(context.Background(), pl, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mc.ShiftedYieldModelContext(context.Background(), pl, 0.95, defects.Model{})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("zero model %+v != ShiftedYieldContext %+v", a, b)
	}
}

func TestShiftedYieldModelContextClusteredDeterministic(t *testing.T) {
	pl, err := sqgrid.PlacementWithPrimaryTarget(48, 1)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) Result {
		mc := NewMonteCarlo(8)
		mc.Runs = 700
		mc.Workers = workers
		res, err := mc.ShiftedYieldModelContext(context.Background(), pl, 0.93, clusteredModel(3))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := run(1), run(5); a != b {
		t.Errorf("clustered shifted estimate differs across workers: %+v vs %+v", a, b)
	}
}
