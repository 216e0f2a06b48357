package yieldsim

// Statistical conformance of the fixed-run estimators against exact truths.
// Every other yieldsim test pins determinism: same inputs, same bits. These
// tests check what an estimate promises. Over K seeds, the reported Wilson
// 95% interval must cover the exact yield at close to the nominal rate, and
// the estimates must be unbiased: their mean, which is the pooled
// proportion over all K·runs trials, must sit within 3 standard errors of
// the truth.
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

	"dmfb/internal/defects"
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
// DTMB(1,6) clusters of its array (6 primaries and 7 cells per cluster) and
// the fault count m of its fixed-count cases, chosen so that their truths
// sit between 0.5 and 0.9. The first row is the one on the per-cell scan
// side of the Bernoulli samplers' crossover (q = 0.41 > skipMaxQ in package
// defects), where no array has a truth that high: one cluster at p = 0.59
// survives with probability 0.146. Its m = 0 marks a row without
// fixed-count cases, which on one cluster would be certain.
var conformanceGrid = []struct {
	p        float64
	clusters int
	m        int
}{
	{0.59, 1, 0},    // 7 cells
	{0.85, 2, 2},    // 14 cells
	{0.95, 8, 2},    // 56 cells
	{0.99, 40, 5},   // 280 cells, five-word fault rows
	{0.999, 100, 8}, // 700 cells
}

// fixedCountClusterYield is the exact yield of m faults drawn uniformly from
// the c·K cells of a domain spread evenly over K complete DTMB(1,6)
// clusters: a cluster survives at most one fault of its c cells, so the
// chip survives iff the m faults fall in distinct clusters, with
// probability C(K,m)·c^m / C(c·K,m) = Π_{i<m} c·(K−i) / (c·K−i).
func fixedCountClusterYield(clusters, m, c int) float64 {
	y := 1.0
	for i := 0; i < m; i++ {
		y *= float64(c*(clusters-i)) / float64(c*clusters-i)
	}
	return y
}

// TestConformanceFixedRun checks coverage and bias of YieldFixedFaults on a
// cluster-complete DTMB(1,6) array in both fault domains against
// fixedCountClusterYield (c = 7 cells per cluster over all cells, 6 over the
// primaries), and of Yield against ClusterYieldDTMB16, on which that closed
// form is exact.
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
			{fmt.Sprintf("fixed-count-all-cells/clusters=%d/m=%d", g.clusters, g.m), fixedCountClusterYield(g.clusters, g.m, 7),
				func(mc *MonteCarlo) (Result, error) {
					return mc.YieldFixedFaults(arr, g.m, defects.AllCells)
				}},
			{fmt.Sprintf("fixed-count-primaries-only/clusters=%d/m=%d", g.clusters, g.m), fixedCountClusterYield(g.clusters, g.m, 6),
				func(mc *MonteCarlo) (Result, error) {
					return mc.YieldFixedFaults(arr, g.m, defects.PrimariesOnly)
				}},
			{fmt.Sprintf("dtmb16-cluster/p=%g", g.p), ClusterYieldDTMB16(g.p, n), func(mc *MonteCarlo) (Result, error) {
				return mc.Yield(arr, g.p)
			}},
		}
		if g.m == 0 {
			cases = cases[2:]
		}
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
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
