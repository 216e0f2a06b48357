package yieldsim

// Differential and acceptance tests for precision-targeted adaptive
// sampling. The contract has two halves: with the rule disabled (or never
// firing) the estimate is bit-identical to a fixed-run one, and with the
// rule firing the realized count and estimate depend only on
// (Seed, Epsilon, Runs) — never on Workers or GOMAXPROCS.

import (
	"context"
	"math"
	"runtime"
	"testing"

	"dmfb/internal/layout"
	"dmfb/internal/stats"
	"dmfb/internal/telemetry"
)

// TestDifferentialAdaptiveEpsilonZero pins that Epsilon == 0 reproduces the
// fixed-run estimates bit-for-bit across every (strategy, defect model,
// seed, workers) cell of the differential matrix.
func TestDifferentialAdaptiveEpsilonZero(t *testing.T) {
	cases := differentialCases(t)
	for _, seed := range differentialSeeds(t) {
		for i, tc := range cases {
			fixed := configureDifferential(seed, i)
			want, err := tc.eval(fixed)
			if err != nil {
				t.Fatalf("%s seed=%d fixed: %v", tc.name, seed, err)
			}
			adaptive := configureDifferential(seed, i)
			adaptive.Epsilon = 0
			got, err := tc.eval(adaptive)
			if err != nil {
				t.Fatalf("%s seed=%d epsilon=0: %v", tc.name, seed, err)
			}
			if got != want {
				t.Errorf("%s seed=%d: epsilon=0 %+v != fixed %+v", tc.name, seed, got, want)
			}
		}
	}
}

// TestDifferentialAdaptiveBudgetExhaustion pins the harder half of the
// equivalence: an epsilon so small the rule can never fire runs to budget
// exhaustion while testing the live rule at every committed boundary, and
// the result must still be bit-identical to the fixed-run (epsilon = 0)
// estimate.
func TestDifferentialAdaptiveBudgetExhaustion(t *testing.T) {
	cases := differentialCases(t)
	for _, seed := range differentialSeeds(t) {
		for i, tc := range cases {
			fixed := configureDifferential(seed, i)
			want, err := tc.eval(fixed)
			if err != nil {
				t.Fatalf("%s seed=%d fixed: %v", tc.name, seed, err)
			}
			adaptive := configureDifferential(seed, i)
			adaptive.Epsilon = 1e-9 // unreachable within any finite budget here
			got, err := tc.eval(adaptive)
			if err != nil {
				t.Fatalf("%s seed=%d adaptive: %v", tc.name, seed, err)
			}
			if got != want {
				t.Errorf("%s seed=%d: budget-exhausted adaptive %+v != fixed %+v", tc.name, seed, got, want)
			}
		}
	}
}

// TestDifferentialAdaptiveWorkerInvariance is the acceptance pin: a
// precision-targeted estimate (ε = 0.001, p = 0.999, n ≈ 1000, local
// strategy) meets its target, realizes at least 5× fewer trials than the
// a-priori fixed-run count that guarantees the same width, and is
// bit-identical across Workers ∈ {1,4} × GOMAXPROCS ∈ {1,8}.
func TestDifferentialAdaptiveWorkerInvariance(t *testing.T) {
	arr, err := layout.BuildWithPrimaryTarget(layout.DTMB26(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	const (
		epsilon = 0.001
		p       = 0.999
		budget  = 200000
	)
	run := func(workers int) Result {
		t.Helper()
		mc := NewMonteCarlo(20050307)
		mc.Runs = budget
		mc.Epsilon = epsilon
		mc.Workers = workers
		res, err := mc.YieldContext(context.Background(), arr, p)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var want Result
	first := true
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{1, 4} {
			got := run(workers)
			if first {
				want, first = got, false
				continue
			}
			if got != want {
				t.Fatalf("GOMAXPROCS=%d workers=%d: %+v != %+v", procs, workers, got, want)
			}
		}
	}
	runtime.GOMAXPROCS(prev)

	if want.Runs >= budget {
		t.Fatalf("realized %d trials, never stopped early within budget %d", want.Runs, budget)
	}
	half := stats.Proportion{Successes: want.Successes, Trials: want.Runs}.Wilson95Half()
	if half > epsilon {
		t.Errorf("realized half-width %v exceeds target %v", half, epsilon)
	}
	// The fixed-run count that guarantees half-width ≤ ε without knowing the
	// proportion in advance is the worst case at phat = 0.5.
	worstCaseFixed := 1.959963984540054 * 1.959963984540054 * 0.25 / (epsilon * epsilon)
	if float64(want.Runs)*5 > worstCaseFixed {
		t.Errorf("realized %d trials, want ≥5× fewer than the %d-trial fixed-run worst case",
			want.Runs, int(worstCaseFixed))
	}
}

// TestAdaptiveRealizedCountIsChunkAligned checks the stopping boundary lands
// on a chunk multiple — the rule is evaluated only at committed chunk
// boundaries, never mid-chunk.
func TestAdaptiveRealizedCountIsChunkAligned(t *testing.T) {
	arr, err := layout.BuildWithPrimaryTarget(layout.DTMB26(), 200)
	if err != nil {
		t.Fatal(err)
	}
	mc := NewMonteCarlo(7)
	mc.Runs = 100000
	mc.Epsilon = 0.01
	res, err := mc.Yield(arr, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs >= mc.Runs {
		t.Fatalf("never stopped early (%d trials)", res.Runs)
	}
	if res.Runs%DefaultChunkSize != 0 {
		t.Errorf("realized count %d is not a multiple of the %d-trial chunk", res.Runs, DefaultChunkSize)
	}
}

// TestAdaptiveNonPositiveBudgetRejected checks a precision-targeted
// estimate with a non-positive trial budget is rejected.
func TestAdaptiveNonPositiveBudgetRejected(t *testing.T) {
	arr, err := layout.BuildWithPrimaryTarget(layout.DTMB26(), 100)
	if err != nil {
		t.Fatal(err)
	}
	bad := NewMonteCarlo(1)
	bad.Runs = 0
	bad.Epsilon = 0.01
	if _, err := bad.Yield(arr, 0.95); err == nil {
		t.Error("non-positive adaptive budget accepted")
	}
}

// TestAdaptiveTelemetry checks the kernel feeds the early-stop counter and
// realized-runs histogram only for precision-targeted estimates: one early
// stop observes both, a budget exhaustion observes only the histogram, and
// a fixed-run (epsilon = 0) estimate observes neither.
func TestAdaptiveTelemetry(t *testing.T) {
	arr, err := layout.BuildWithPrimaryTarget(layout.DTMB26(), 100)
	if err != nil {
		t.Fatal(err)
	}
	m := telemetry.NewKernelMetrics(nil)
	mc := NewMonteCarlo(3)
	mc.Runs = 50000
	mc.Epsilon = 0.01
	mc.Metrics = m
	res, err := mc.Yield(arr, 0.999)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs >= mc.Runs {
		t.Fatalf("expected an early stop, realized %d/%d", res.Runs, mc.Runs)
	}
	if got := m.EarlyStops.Value(); got != 1 {
		t.Errorf("early stops %d, want 1", got)
	}
	if got := m.RealizedRuns.Count(); got != 1 {
		t.Errorf("realized-runs observations %d, want 1", got)
	}

	mc2 := NewMonteCarlo(3)
	mc2.Runs = 512
	mc2.Epsilon = 1e-9
	mc2.Metrics = m
	if _, err := mc2.Yield(arr, 0.9); err != nil {
		t.Fatal(err)
	}
	if got := m.EarlyStops.Value(); got != 1 {
		t.Errorf("budget exhaustion counted as early stop (%d)", got)
	}
	if got := m.RealizedRuns.Count(); got != 2 {
		t.Errorf("realized-runs observations %d, want 2", got)
	}

	fixed := NewMonteCarlo(3)
	fixed.Runs = 512
	fixed.Metrics = m
	if _, err := fixed.Yield(arr, 0.999); err != nil {
		t.Fatal(err)
	}
	if got := m.EarlyStops.Value(); got != 1 {
		t.Errorf("fixed-run estimate counted as early stop (%d)", got)
	}
	if got := m.RealizedRuns.Count(); got != 2 {
		t.Errorf("fixed-run estimate observed in realized runs (%d observations, want 2)", got)
	}
}

// TestAdaptiveTrialsMetricCountsExecutedTrials checks the per-chunk trials
// counter keeps counting executed work — including chunks computed past the
// stopping boundary and discarded from the estimate — so telemetry reports
// cost, not just the committed prefix.
func TestAdaptiveTrialsMetricCountsExecutedTrials(t *testing.T) {
	arr, err := layout.BuildWithPrimaryTarget(layout.DTMB26(), 100)
	if err != nil {
		t.Fatal(err)
	}
	m := telemetry.NewKernelMetrics(nil)
	mc := NewMonteCarlo(5)
	mc.Runs = 50000
	mc.Epsilon = 0.01
	mc.Workers = 4
	mc.Metrics = m
	res, err := mc.Yield(arr, 0.999)
	if err != nil {
		t.Fatal(err)
	}
	if executed := m.Trials.Value(); executed < uint64(res.Runs) {
		t.Errorf("trials counter %d below committed count %d", executed, res.Runs)
	}
}

// TestAdaptiveStratifiedComposition checks a precision-targeted MonteCarlo
// stratifies cleanly: every simulated stratum inherits the epsilon and the
// combined estimate still matches the closed form.
func TestAdaptiveStratifiedComposition(t *testing.T) {
	arr, err := layout.BuildWithPrimaryTarget(layout.DTMB16(), 60)
	if err != nil {
		t.Fatal(err)
	}
	const p = 0.99
	mc := NewMonteCarlo(11)
	mc.Runs = 100000
	mc.Epsilon = 0.005
	sr, err := mc.StratifiedNoRedundancyMC(arr, p)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Pow(p, float64(arr.NumPrimary()))
	if want < sr.CILo-1e-9 || want > sr.CIHi+1e-9 {
		t.Errorf("closed form %v outside stratified CI [%v, %v]", want, sr.CILo, sr.CIHi)
	}
	if sr.Runs >= mc.Runs {
		t.Errorf("adaptive strata realized %d total trials with a %d budget each — no early stopping", sr.Runs, mc.Runs)
	}
}
