package yieldsim

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"dmfb/internal/defects"
	"dmfb/internal/layout"
	"dmfb/internal/reconfig"
	"dmfb/internal/sqgrid"
	"dmfb/internal/stats"
)

func buildArray(t testing.TB, d layout.Design, n int) *layout.Array {
	t.Helper()
	arr, err := layout.BuildWithPrimaryTarget(d, n)
	if err != nil {
		t.Fatal(err)
	}
	return arr
}

func TestNoRedundancyPaperNumber(t *testing.T) {
	// Paper §7: "It is only 0.3378 even if the survival probability of a
	// single cell is as high as 0.99" for the 108-cell assay footprint.
	got := NoRedundancy(0.99, 108)
	if math.Abs(got-0.3378) > 5e-4 {
		t.Errorf("NoRedundancy(0.99, 108) = %.4f, want 0.3378", got)
	}
}

func TestNoRedundancyEdgeCases(t *testing.T) {
	if NoRedundancy(0.5, 0) != 1 {
		t.Error("zero cells must yield 1")
	}
	if NoRedundancy(0.5, -1) != 0 {
		t.Error("negative n must yield 0")
	}
	if NoRedundancy(1, 1000) != 1 || NoRedundancy(0, 5) != 0 {
		t.Error("degenerate probabilities wrong")
	}
}

func TestClusterYieldFormula(t *testing.T) {
	// Hand-computed: p = 0.95 -> Yc = 0.95^7 + 7·0.95^6·0.05 ≈ 0.955562,
	// Y(n=120) = Yc^20 ≈ 0.40287.
	yc := math.Pow(0.95, 7) + 7*math.Pow(0.95, 6)*0.05
	want := math.Pow(yc, 20)
	got := ClusterYieldDTMB16(0.95, 120)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("ClusterYieldDTMB16(0.95,120) = %v, want %v", got, want)
	}
	if ClusterYieldDTMB16(1, 600) != 1 {
		t.Error("p=1 must yield 1")
	}
	if ClusterYieldDTMB16(0, 6) != 0 {
		t.Error("p=0 must yield 0")
	}
	if ClusterYieldDTMB16(0.9, -5) != 0 {
		t.Error("negative n must yield 0")
	}
}

func TestClusterYieldBeatsNoRedundancy(t *testing.T) {
	// Paper Fig. 7: interstitial redundancy improves yield at every p < 1.
	for _, p := range []float64{0.90, 0.95, 0.99} {
		for _, n := range []int{60, 120, 240} {
			if ClusterYieldDTMB16(p, n) <= NoRedundancy(p, n) {
				t.Errorf("p=%v n=%d: DTMB(1,6) %v not above no-redundancy %v",
					p, n, ClusterYieldDTMB16(p, n), NoRedundancy(p, n))
			}
		}
	}
}

func TestClusterYieldMonotone(t *testing.T) {
	prev := 0.0
	for _, p := range stats.Linspace(0.5, 1.0, 26) {
		y := ClusterYieldDTMB16(p, 120)
		if y < prev-1e-12 {
			t.Fatalf("yield not monotone at p=%v", p)
		}
		prev = y
	}
}

func TestEffectiveYield(t *testing.T) {
	if got := EffectiveYield(0.9, 0.5); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("EffectiveYield = %v, want 0.6", got)
	}
	// EY via counts must match EY via RR for consistent n, N.
	y := 0.8
	n, total := 252, 343
	rr := float64(total-n) / float64(n)
	a := EffectiveYieldCells(y, n, total)
	b := EffectiveYield(y, rr)
	if math.Abs(a-b) > 1e-12 {
		t.Errorf("EY mismatch: cells %v vs rr %v", a, b)
	}
	if EffectiveYieldCells(1, 1, 0) != 0 {
		t.Error("zero total cells must give 0")
	}
}

func TestMonteCarloDegenerateProbabilities(t *testing.T) {
	arr := buildArray(t, layout.DTMB26(), 60)
	mc := NewMonteCarlo(1)
	mc.Runs = 200
	res, err := mc.Yield(arr, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Yield != 1 {
		t.Errorf("p=1 yield %v", res.Yield)
	}
	res, err = mc.Yield(arr, 0.0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Yield != 0 {
		t.Errorf("p=0 yield %v", res.Yield)
	}
}

func TestMonteCarloParameterValidation(t *testing.T) {
	arr := buildArray(t, layout.DTMB26(), 30)
	mc := NewMonteCarlo(1)
	if _, err := mc.Yield(arr, 1.5); err == nil {
		t.Error("p>1 accepted")
	}
	if _, err := mc.Yield(arr, -0.1); err == nil {
		t.Error("p<0 accepted")
	}
	if _, err := mc.YieldFixedFaults(arr, -1, defects.AllCells); err == nil {
		t.Error("negative m accepted")
	}
	mc.Runs = 0
	if _, err := mc.Yield(arr, 0.9); err == nil {
		t.Error("zero runs accepted")
	}
}

func TestMonteCarloDeterministicPerSeed(t *testing.T) {
	arr := buildArray(t, layout.DTMB36(), 60)
	a := NewMonteCarlo(42)
	a.Runs = 500
	a.Workers = 4
	b := NewMonteCarlo(42)
	b.Runs = 500
	b.Workers = 4
	ra, err := a.Yield(arr, 0.93)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Yield(arr, 0.93)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Successes != rb.Successes {
		t.Errorf("same seed, different outcomes: %d vs %d", ra.Successes, rb.Successes)
	}
}

func TestMonteCarloMatchesClusterModelForDTMB16(t *testing.T) {
	// On a cluster-complete DTMB(1,6) array the closed-form model is exact,
	// so the matching-based Monte-Carlo must agree within its confidence
	// interval.
	arr, err := layout.BuildClusterCompleteDTMB16(20) // n = 120
	if err != nil {
		t.Fatal(err)
	}
	if arr.NumPrimary() != 120 {
		t.Fatalf("cluster-complete array has %d primaries, want 120", arr.NumPrimary())
	}
	mc := NewMonteCarlo(7)
	mc.Runs = 6000
	for _, p := range []float64{0.95, 0.98, 0.99} {
		res, err := mc.Yield(arr, p)
		if err != nil {
			t.Fatal(err)
		}
		analytic := ClusterYieldDTMB16(p, arr.NumPrimary())
		if analytic < res.CILo-0.01 || analytic > res.CIHi+0.01 {
			t.Errorf("p=%v: analytic %v outside MC interval [%v, %v]",
				p, analytic, res.CILo, res.CIHi)
		}
	}
}

func TestBoundaryEffectsLowerParallelogramYield(t *testing.T) {
	// Parallelogram DTMB(1,6) arrays leave some boundary primaries without
	// an in-array spare, so their Monte-Carlo yield falls below the
	// cluster-complete ideal — the boundary-effects ablation.
	para := buildArray(t, layout.DTMB16(), 120)
	ideal, err := layout.BuildClusterCompleteDTMB16(20)
	if err != nil {
		t.Fatal(err)
	}
	mc := NewMonteCarlo(13)
	mc.Runs = 3000
	p := 0.97
	rp, err := mc.Yield(para, p)
	if err != nil {
		t.Fatal(err)
	}
	ri, err := mc.Yield(ideal, p)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Yield >= ri.Yield {
		t.Errorf("parallelogram yield %v not below cluster-complete yield %v",
			rp.Yield, ri.Yield)
	}
}

func TestMonteCarloYieldMonotoneInP(t *testing.T) {
	arr := buildArray(t, layout.DTMB26(), 100)
	mc := NewMonteCarlo(3)
	mc.Runs = 2000
	prev := -1.0
	for _, p := range []float64{0.85, 0.90, 0.95, 0.99} {
		res, err := mc.Yield(arr, p)
		if err != nil {
			t.Fatal(err)
		}
		// Allow tiny Monte-Carlo wiggle.
		if res.Yield < prev-0.03 {
			t.Errorf("yield dropped from %v to %v at p=%v", prev, res.Yield, p)
		}
		prev = res.Yield
	}
}

func TestHigherRedundancyHigherYield(t *testing.T) {
	// Paper Fig. 9: at fixed p and n, DTMB(4,4) ≥ DTMB(3,6) ≥ DTMB(2,6).
	mc := NewMonteCarlo(11)
	mc.Runs = 2000
	p := 0.95
	var yields []float64
	for _, d := range []layout.Design{layout.DTMB26(), layout.DTMB36(), layout.DTMB44()} {
		arr := buildArray(t, d, 100)
		res, err := mc.Yield(arr, p)
		if err != nil {
			t.Fatal(err)
		}
		yields = append(yields, res.Yield)
	}
	for i := 1; i < len(yields); i++ {
		if yields[i] < yields[i-1]-0.03 {
			t.Errorf("redundancy level %d yield %v below level %d yield %v",
				i, yields[i], i-1, yields[i-1])
		}
	}
}

func TestYieldFixedFaultsBasics(t *testing.T) {
	arr := buildArray(t, layout.DTMB26(), 100)
	mc := NewMonteCarlo(5)
	mc.Runs = 500
	res, err := mc.YieldFixedFaults(arr, 0, defects.AllCells)
	if err != nil {
		t.Fatal(err)
	}
	if res.Yield != 1 {
		t.Errorf("m=0 yield %v, want 1", res.Yield)
	}
	// Yield decreases (weakly) with m.
	prev := 1.0
	for _, m := range []int{5, 15, 40, 80} {
		res, err := mc.YieldFixedFaults(arr, m, defects.AllCells)
		if err != nil {
			t.Fatal(err)
		}
		if res.Yield > prev+0.03 {
			t.Errorf("yield increased with more faults at m=%d: %v > %v", m, res.Yield, prev)
		}
		prev = res.Yield
	}
}

func TestYieldFixedFaultsDomainsDiffer(t *testing.T) {
	// At equal m, faults over all cells hit spares too and destroy repair
	// capacity: measured yield is *lower* than with faults confined to
	// primaries, even though the latter creates more repair demands. (Each
	// dead spare strands up to p primaries; demand grows only one repair
	// per fault.) This asymmetry is recorded in EXPERIMENTS.md.
	arr := buildArray(t, layout.DTMB26(), 100)
	mc := NewMonteCarlo(9)
	mc.Runs = 1500
	m := 20
	all, err := mc.YieldFixedFaults(arr, m, defects.AllCells)
	if err != nil {
		t.Fatal(err)
	}
	prim, err := mc.YieldFixedFaults(arr, m, defects.PrimariesOnly)
	if err != nil {
		t.Fatal(err)
	}
	if all.Yield > prim.Yield+0.05 {
		t.Errorf("all-cells yield %v above primaries-only %v: spare attrition should dominate",
			all.Yield, prim.Yield)
	}
	if _, err := mc.YieldFixedFaults(arr, arr.NumPrimary()+1, defects.PrimariesOnly); err == nil {
		t.Error("m beyond domain size accepted")
	}
}

func TestRepairUsedScopeRaisesYield(t *testing.T) {
	arr := buildArray(t, layout.DTMB16(), 100)
	used := make([]bool, arr.NumCells())
	// Mark only half the primaries as used.
	for i, id := range arr.Primaries() {
		if i%2 == 0 {
			used[id] = true
		}
	}
	all := NewMonteCarlo(33)
	all.Runs = 1500
	scoped := NewMonteCarlo(33)
	scoped.Runs = 1500
	scoped.Scope = reconfig.RepairUsed
	scoped.Used = used

	p := 0.95
	ra, err := all.Yield(arr, p)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := scoped.Yield(arr, p)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Yield < ra.Yield-0.02 {
		t.Errorf("repair-used yield %v below repair-all %v", rs.Yield, ra.Yield)
	}
}

func TestResultStringAndCI(t *testing.T) {
	r := newResult(90, 100)
	if r.Yield != 0.9 || r.CILo >= r.CIHi {
		t.Errorf("bad result %+v", r)
	}
	if r.CILo > 0.9 || r.CIHi < 0.9 {
		t.Error("point estimate outside CI")
	}
	s := r.String()
	if !strings.Contains(s, "0.9000") || !strings.Contains(s, "90/100") {
		t.Errorf("String() = %q", s)
	}
}

func TestMonteCarloDeterministicAcrossWorkerCounts(t *testing.T) {
	// Chunked seeding makes the estimate a function of (Seed, Runs) only:
	// any worker count must reproduce it exactly. Eight chunks, the last one
	// short, so every worker count serves several.
	arr := buildArray(t, layout.DTMB36(), 60)
	var want int
	for i, workers := range []int{1, 2, 3, 8} {
		mc := NewMonteCarlo(42)
		mc.Runs = 7*DefaultChunkSize + 52
		mc.Workers = workers
		res, err := mc.Yield(arr, 0.93)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = res.Successes
		} else if res.Successes != want {
			t.Errorf("workers=%d: %d successes, want %d", workers, res.Successes, want)
		}
	}
}

func TestMonteCarloContextCancellation(t *testing.T) {
	arr := buildArray(t, layout.DTMB26(), 60)
	mc := NewMonteCarlo(1)
	mc.Runs = 200

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := mc.YieldContext(ctx, arr, 0.95); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context: err = %v, want context.Canceled", err)
	}
	if _, err := mc.YieldFixedFaultsContext(ctx, arr, 5, defects.AllCells); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context (fixed faults): err = %v, want context.Canceled", err)
	}
}

func TestTrialErrorDoesNotLeakGoroutines(t *testing.T) {
	// When every worker dies on a trial error, no worker may be left
	// blocked on the fold's undrained result channel — with the stopping
	// rule off and with a live one.
	arr := buildArray(t, layout.DTMB26(), 60)
	before := runtime.NumGoroutine()
	for _, epsilon := range []float64{0, 0.01} {
		mc := NewMonteCarlo(1)
		mc.Runs = 40 * DefaultChunkSize // many chunks, so the run outlives the first error
		mc.Epsilon = epsilon
		for i := 0; i < 20; i++ {
			// m > NumCells makes the very first trial of every worker error.
			if _, err := mc.YieldFixedFaults(arr, arr.NumCells()+1, defects.AllCells); err == nil {
				t.Fatalf("epsilon=%v: oversized fault count accepted", epsilon)
			}
		}
	}
	// Give exiting goroutines a moment to unwind.
	for i := 0; i < 100 && runtime.NumGoroutine() > before+2; i++ {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Errorf("goroutines grew from %d to %d across failing runs", before, after)
	}
}

// TestTrialErrorIndependentOfWorkers checks that a trial error is reported
// in chunk order: an oversized fault count fails every chunk, and the error
// returned is the same whatever the worker count.
func TestTrialErrorIndependentOfWorkers(t *testing.T) {
	arr := buildArray(t, layout.DTMB26(), 60)
	var want string
	for _, workers := range []int{1, 2, 8} {
		mc := NewMonteCarlo(1)
		mc.Runs = 40 * DefaultChunkSize
		mc.Workers = workers
		_, err := mc.YieldFixedFaults(arr, arr.NumCells()+1, defects.AllCells)
		if err == nil {
			t.Fatalf("workers=%d: oversized fault count accepted", workers)
		}
		if workers == 1 {
			want = err.Error()
		} else if err.Error() != want {
			t.Fatalf("workers=%d: error %q, want %q", workers, err, want)
		}
	}
}

func TestWorkersClampedToRuns(t *testing.T) {
	arr := buildArray(t, layout.DTMB26(), 30)
	mc := NewMonteCarlo(4)
	mc.Runs = 3
	mc.Workers = 16
	res, err := mc.Yield(arr, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 3 {
		t.Errorf("Runs = %d, want 3", res.Runs)
	}
}

func BenchmarkMonteCarloYieldDTMB26N100(b *testing.B) {
	arr, err := layout.BuildWithPrimaryTarget(layout.DTMB26(), 100)
	if err != nil {
		b.Fatal(err)
	}
	mc := NewMonteCarlo(1)
	mc.Runs = 1000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mc.Yield(arr, 0.95); err != nil {
			b.Fatal(err)
		}
	}
}

func TestShiftedYieldDegenerateAndInvalid(t *testing.T) {
	pl, err := sqgrid.PlacementWithPrimaryTarget(36, 1)
	if err != nil {
		t.Fatal(err)
	}
	mc := NewMonteCarlo(1)
	mc.Runs = 200
	res, err := mc.ShiftedYield(pl, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Yield != 1 {
		t.Errorf("yield at p=1 is %v", res.Yield)
	}
	if _, err := mc.ShiftedYield(pl, 1.5); err == nil {
		t.Error("p=1.5 accepted")
	}
	if _, err := mc.ShiftedYield(pl, math.NaN()); err == nil {
		t.Error("NaN accepted")
	}
	noSpares := pl
	noSpares.SpareRows = 0
	if _, err := mc.ShiftedYield(noSpares, 0.95); err == nil {
		t.Error("placement without spare rows accepted")
	}
}

func TestShiftedYieldDeterministicAcrossWorkerCounts(t *testing.T) {
	pl, err := sqgrid.PlacementWithPrimaryTarget(36, 2)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) Result {
		mc := NewMonteCarlo(77)
		mc.Runs = 1000
		mc.Workers = workers
		res, err := mc.ShiftedYield(pl, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := run(1), run(8); a != b {
		t.Errorf("shifted yield differs across worker counts: %+v vs %+v", a, b)
	}
}

func TestShiftedYieldBelowInterstitialAtEqualN(t *testing.T) {
	// The paper's argument: at equal primary-cell counts, interstitial
	// redundancy with local reconfiguration beats boundary spare rows with
	// shifted replacement (and both beat no redundancy at moderate q).
	const n, p = 60, 0.95
	pl, err := sqgrid.PlacementWithPrimaryTarget(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	mc := NewMonteCarlo(5)
	mc.Runs = 2000
	shifted, err := mc.ShiftedYield(pl, p)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := layout.BuildWithPrimaryTarget(layout.DTMB26(), n)
	if err != nil {
		t.Fatal(err)
	}
	local, err := mc.Yield(arr, p)
	if err != nil {
		t.Fatal(err)
	}
	if shifted.Yield >= local.Yield {
		t.Errorf("shifted %v should trail local reconfiguration %v", shifted.Yield, local.Yield)
	}
	if base := NoRedundancy(p, n); shifted.Yield <= base {
		t.Errorf("shifted %v should beat no redundancy %v", shifted.Yield, base)
	}
}

func TestShiftedYieldExtraSpareRowsAddAreaNotCapacity(t *testing.T) {
	// Under strict adjacent shifting a column absorbs at most one repair, so
	// survival depends only on the working rows plus the first spare row:
	// extra spare rows leave yield statistically flat (the estimates differ
	// only through the PRNG consuming more cells) while effective yield
	// drops with the added area — the paper's scaling argument against
	// boundary redundancy.
	mc := NewMonteCarlo(11)
	mc.Runs = 1500
	pl1, err := sqgrid.PlacementWithPrimaryTarget(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	pl3, err := sqgrid.PlacementWithPrimaryTarget(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := mc.ShiftedYield(pl1, 0.90)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := mc.ShiftedYield(pl3, 0.90)
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(r3.Yield - r1.Yield); diff > 0.06 {
		t.Errorf("yield should be flat across spare rows: %v vs %v", r1.Yield, r3.Yield)
	}
	ey1 := EffectiveYieldCells(r1.Yield, 16, pl1.Grid.NumCells())
	ey3 := EffectiveYieldCells(r3.Yield, 16, pl3.Grid.NumCells())
	if ey3 >= ey1 {
		t.Errorf("effective yield must fall with added spare area: %v (1 row) vs %v (3 rows)", ey1, ey3)
	}
}

func TestShiftedYieldCancellation(t *testing.T) {
	pl, err := sqgrid.PlacementWithPrimaryTarget(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	mc := NewMonteCarlo(3)
	mc.Runs = 5_000_000
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := mc.ShiftedYieldContext(ctx, pl, 0.95)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation not observed")
	}
}

// TestShiftedYieldMatchesShiftSessionReference pins the word-parallel
// column walk inside ShiftedYieldModelContext to the authoritative
// reconfig.ShiftSession semantics: estimating through mc.run with a scalar
// draw and a session-driven trial must give the identical Result for
// identical (seed, runs), under both defect models and on both sides of the
// Bernoulli samplers' crossover (p = 0.8 scans, p = 0.9 and 0.99 skip).
func TestShiftedYieldMatchesShiftSessionReference(t *testing.T) {
	models := []struct {
		name  string
		model defects.Model
		ps    []float64
	}{
		{"independent", defects.Model{}, []float64{0.8, 0.9, 0.99}},
		{"clustered", clusteredModel(3), []float64{0.8, 0.9, 0.99}},
	}
	for _, tc := range []struct{ n, rows int }{{10, 1}, {24, 1}, {24, 2}, {36, 3}} {
		pl, err := sqgrid.PlacementWithPrimaryTarget(tc.n, tc.rows)
		if err != nil {
			t.Fatal(err)
		}
		// Reference trial: ShiftSession with deepest-first repairs.
		order := pl.UsedCells()
		sort.Slice(order, func(i, j int) bool {
			if order[i].Y != order[j].Y {
				return order[i].Y > order[j].Y
			}
			return order[i].X < order[j].X
		})
		w, h := pl.Grid.W, pl.Grid.H
		numCells := pl.Grid.NumCells()
		repairsAll := func(fs *defects.FaultSet) (bool, error) {
			if fs.Count() == 0 {
				return true, nil
			}
			faults := make([]sqgrid.Coord, 0, fs.Count())
			for i := 0; i < numCells; i++ {
				if fs.IsFaulty(layout.CellID(i)) {
					faults = append(faults, pl.Grid.CoordOf(i))
				}
			}
			session, err := reconfig.NewShiftSession(pl, faults)
			if err != nil {
				return false, err
			}
			for _, c := range order {
				if !fs.IsFaulty(layout.CellID(pl.Grid.Index(c))) {
					continue
				}
				if res := session.Repair(c); !res.OK {
					return false, nil
				}
			}
			return true, nil
		}
		for _, m := range models {
			for _, p := range m.ps {
				mc := NewMonteCarlo(123)
				mc.Runs = 800
				got, err := mc.ShiftedYieldModelContext(context.Background(), pl, p, m.model)
				if err != nil {
					t.Fatal(err)
				}
				cp := m.model.Params(p, numCells)
				ref := NewMonteCarlo(123)
				ref.Runs = 800
				want, err := ref.run(context.Background(), func(_ *kernelProbe) (batchFunc, error) {
					fs := defects.NewFaultSet(numCells)
					return perTrial(func(in *defects.Injector) (bool, error) {
						if m.model.Clustered {
							next, _, err := in.ClusteredGrid(w, h, cp, fs)
							if err != nil {
								return false, err
							}
							fs = next
						} else {
							fs = in.BernoulliN(numCells, p, fs)
						}
						return repairsAll(fs)
					}), nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("n=%d rows=%d %s p=%v: column walk %+v != session reference %+v",
						tc.n, tc.rows, m.name, p, got, want)
				}
			}
		}
	}
}
