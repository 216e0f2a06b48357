package defects

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"dmfb/internal/layout"
)

// clusterMarginal is the exact per-cell fault probability of the clustered
// model: clusters arrive as Poisson(λ) with centers uniform over the N
// cells, and a cluster centered at o marks cell c with probability
// d^dist(o,c) (d⁰ = 1, nothing past maxR), so the clusters that strike c are
// a thinned Poisson process of rate (λ/N)·Σ_o d^dist(o,c), and c is faulty
// unless that count is zero.
func clusterMarginal(cp ClusterParams, decay float64, numCells int, dist func(o, c int) int) []float64 {
	maxR := clusterRadius(decay)
	rate := cp.clusterRate() / float64(numCells)
	want := make([]float64, numCells)
	for c := range want {
		sum := 0.0
		for o := 0; o < numCells; o++ {
			if r := dist(o, c); r <= maxR {
				sum += math.Pow(decay, float64(r))
			}
		}
		want[c] = 1 - math.Exp(-rate*sum)
	}
	return want
}

// zScore is the standardized deviation of k successes in n trials from
// success probability p.
func zScore(k, n int, p float64) float64 {
	return (float64(k) - float64(n)*p) / math.Sqrt(float64(n)*p*(1-p))
}

// TestConformanceClusteredMarginals checks the clustered model's two exact
// laws by simulation: each cell's fault probability against
// clusterMarginal, and the all-healthy probability against exp(−λ) (every
// cluster marks its center, so a trial is healthy iff no cluster arrives).
// ClusteredBatch runs on a parallelogram and a hexagon footprint of
// DTMB(2,6) under hex distance; ClusteredGrid runs on a 9×7 grid under
// Chebyshev distance. Every case is seeded, and each deviation must stay
// within |z| ≤ 4.5.
func TestConformanceClusteredMarginals(t *testing.T) {
	const bound = 4.5
	batches := 1600 // 102 400 trials per case
	if testing.Short() {
		batches = 160
	}
	trials := batches * WordTrials
	para, err := layout.BuildWithPrimaryTarget(layout.DTMB26(), 40)
	if err != nil {
		t.Fatal(err)
	}
	hex, err := layout.BuildHexagonWithPrimaryTarget(layout.DTMB26(), 40)
	if err != nil {
		t.Fatal(err)
	}
	const gw, gh = 9, 7
	check := func(t *testing.T, want []float64, faults []int, healthy int, lambda float64) {
		t.Helper()
		worst := 0.0
		for c, p := range want {
			z := zScore(faults[c], trials, p)
			worst = max(worst, math.Abs(z))
			if math.Abs(z) > bound {
				t.Errorf("cell %d: %d faults in %d trials, want p = %.5f (z = %.2f)", c, faults[c], trials, p, z)
			}
		}
		p0 := math.Exp(-lambda)
		if z := zScore(healthy, trials, p0); math.Abs(z) > bound {
			t.Errorf("%d all-healthy trials in %d, want P = exp(-%g) = %.5f (z = %.2f)", healthy, trials, lambda, p0, z)
		}
		t.Logf("worst per-cell |z| = %.2f over %d cells", worst, len(want))
	}
	for i, size := range []float64{2, 4, 8, 64} {
		// λ = 1 cluster per trial whatever the size.
		cp := ClusterParams{MeanDefects: size, ClusterSize: size}
		for j, arr := range []*layout.Array{para, hex} {
			name := [...]string{"parallelogram", "hexagon"}[j]
			t.Run(fmt.Sprintf("batch/%s/size=%g", name, size), func(t *testing.T) {
				want := clusterMarginal(cp, cp.clusterDecay(6), arr.NumCells(), func(o, c int) int {
					return arr.Cell(layout.CellID(o)).Pos.Distance(arr.Cell(layout.CellID(c)).Pos)
				})
				in, b := NewInjector(int64(100*i+j+1)), NewTrialBatch(arr.NumCells())
				faults, healthy := make([]int, arr.NumCells()), 0
				for k := 0; k < batches; k++ {
					if _, err := in.ClusteredBatch(arr, cp, WordTrials, b); err != nil {
						t.Fatal(err)
					}
					for c, col := range b.cols {
						faults[c] += bits.OnesCount64(col)
					}
					healthy += b.AllHealthy()
				}
				check(t, want, faults, healthy, cp.clusterRate())
			})
		}
		t.Run(fmt.Sprintf("grid/%dx%d/size=%g", gw, gh, size), func(t *testing.T) {
			want := clusterMarginal(cp, cp.clusterDecay(8), gw*gh, func(o, c int) int {
				return maxAbs(o%gw-c%gw, o/gw-c/gw)
			})
			in := NewInjector(int64(100*i + 3))
			faults, healthy := make([]int, gw*gh), 0
			var fs *FaultSet
			for k := 0; k < trials; k++ {
				if fs, _, err = in.ClusteredGrid(gw, gh, cp, fs); err != nil {
					t.Fatal(err)
				}
				for _, c := range fs.FaultyCells() {
					faults[c]++
				}
				if fs.Count() == 0 {
					healthy++
				}
			}
			check(t, want, faults, healthy, cp.clusterRate())
		})
	}
}
