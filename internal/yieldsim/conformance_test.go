package yieldsim

// Statistical conformance of the fixed-run estimators against the paper's
// closed forms. Every other yieldsim test pins determinism: same inputs,
// same bits. These tests check what an estimate promises. Over K seeds, the
// reported Wilson 95% interval must cover the exact yield at close to the
// nominal rate, and the estimates must be unbiased: their mean, which is the
// pooled proportion over all K·runs trials, must sit within 3 standard
// errors of the truth.
//
// The survival grid spans both Bernoulli samplers of package defects: the
// per-cell scan at p = 0.85 and the geometric skip-sampler at p ≥ 0.95. The
// array grows with p so that every truth stays informative, away from 0
// and 1. -short runs K = 40 seeds; the full suite runs K = 200 (CI's
// "Statistical conformance" step).

import (
	"fmt"
	"math"
	"testing"

	"dmfb/internal/layout"
)

// conformanceRuns is the trial count of each estimate.
const conformanceRuns = 1000

// conformanceSeeds returns the number K of independent estimates per case.
func conformanceSeeds() int {
	if testing.Short() {
		return 40
	}
	return 200
}

// coverageFloor is the lowest empirical coverage over k estimates accepted
// for a nominal 95% interval: 0.95 less three binomial standard deviations
// of the covered count, 0.904 at K = 200 and 0.847 at K = 40.
func coverageFloor(k int) float64 {
	return 0.95 - 3*math.Sqrt(0.95*0.05/float64(k))
}

// conformanceGrid pairs each survival probability with the number of
// DTMB(1,6) clusters of its array (6 primaries and 7 cells per cluster).
var conformanceGrid = []struct {
	p        float64
	clusters int
}{
	{0.85, 2},    // 14 cells
	{0.95, 8},    // 56 cells
	{0.99, 40},   // 280 cells, five-word fault rows
	{0.999, 100}, // 700 cells
}

// TestConformanceFixedRun checks coverage and bias of NoRedundancyMC
// against NoRedundancy = pⁿ, and of Yield on a cluster-complete DTMB(1,6)
// array against ClusterYieldDTMB16, on which that closed form is exact.
func TestConformanceFixedRun(t *testing.T) {
	k := conformanceSeeds()
	for _, g := range conformanceGrid {
		arr, err := layout.BuildClusterCompleteDTMB16(g.clusters)
		if err != nil {
			t.Fatal(err)
		}
		n := arr.NumPrimary()
		cases := []struct {
			name  string
			truth float64
			eval  func(mc *MonteCarlo) (Result, error)
		}{
			{"no-redundancy", NoRedundancy(g.p, n), func(mc *MonteCarlo) (Result, error) {
				return mc.NoRedundancyMC(arr, g.p)
			}},
			{"dtmb16-cluster", ClusterYieldDTMB16(g.p, n), func(mc *MonteCarlo) (Result, error) {
				return mc.Yield(arr, g.p)
			}},
		}
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/p=%g", tc.name, g.p), func(t *testing.T) {
				covered, successes := 0, 0
				for s := 1; s <= k; s++ {
					mc := NewMonteCarlo(int64(s))
					mc.Runs = conformanceRuns
					res, err := tc.eval(mc)
					if err != nil {
						t.Fatal(err)
					}
					if res.CILo <= tc.truth && tc.truth <= res.CIHi {
						covered++
					}
					successes += res.Successes
				}
				coverage := float64(covered) / float64(k)
				trials := float64(k * conformanceRuns)
				mean := float64(successes) / trials
				se := math.Sqrt(tc.truth * (1 - tc.truth) / trials)
				t.Logf("n=%d cells=%d truth=%.6f mean=%.6f bias=%+.2f SE coverage=%.3f (K=%d)",
					n, arr.NumCells(), tc.truth, mean, (mean-tc.truth)/se, coverage, k)
				if floor := coverageFloor(k); coverage < floor {
					t.Errorf("Wilson 95%% coverage %.3f below the floor %.3f at K=%d", coverage, floor, k)
				}
				if math.Abs(mean-tc.truth) > 3*se {
					t.Errorf("mean estimate %.6f is %.2f standard errors from the truth %.6f",
						mean, (mean-tc.truth)/se, tc.truth)
				}
			})
		}
	}
}
