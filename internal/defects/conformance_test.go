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

// clusterHealthy is the exact probability that no cluster strikes any cell
// of a set: clusters arrive as Poisson(λ) with centers uniform over the N
// cells, a cluster centered at o misses the set with probability
// Π_c (1 − h(o,c)), h(o,c) = d^dist(o,c) within maxR and 0 beyond it (the
// set's cells sit on distinct stencil slots, drawn independently), and the
// clusters that strike the set are a thinned Poisson process of rate
// (λ/N)·Σ_o [1 − Π_c (1 − h(o,c))].
func clusterHealthy(cp ClusterParams, decay float64, numCells int, dist func(o, c int) int, set ...int) float64 {
	maxR := clusterRadius(decay)
	sum := 0.0
	for o := 0; o < numCells; o++ {
		miss := 1.0
		for _, c := range set {
			if r := dist(o, c); r <= maxR {
				miss *= 1 - math.Pow(decay, float64(r))
			}
		}
		sum += 1 - miss
	}
	return math.Exp(-cp.clusterRate() / float64(numCells) * sum)
}

// pairLaw tallies one case of TestConformanceClusteredPairs against the
// exact law: healthy[c] is clusterHealthy of cell c alone and mu the mean
// fault count Σ_c (1 − healthy[c]); pairs[i] = {a, b, trials with both
// faulty}; d1, d2 and d4 sum (X − mu)^k over the trials' fault counts X.
type pairLaw struct {
	cp         ClusterParams
	decay      float64
	numCells   int
	dist       func(o, c int) int
	healthy    []float64
	mu         float64
	pairs      [][3]int
	d1, d2, d4 float64
}

// newPairLaw pairs the cell nearest the middle (least eccentricity, lowest
// id on ties) with every cell 1 to 4 away.
func newPairLaw(cp ClusterParams, decay float64, numCells int, dist func(o, c int) int) *pairLaw {
	l := &pairLaw{cp: cp, decay: decay, numCells: numCells, dist: dist, healthy: make([]float64, numCells)}
	for c := range l.healthy {
		l.healthy[c] = clusterHealthy(cp, decay, numCells, dist, c)
		l.mu += 1 - l.healthy[c]
	}
	a, ecc := 0, math.MaxInt
	for o := 0; o < numCells; o++ {
		e := 0
		for c := 0; c < numCells; c++ {
			e = max(e, dist(o, c))
		}
		if e < ecc {
			a, ecc = o, e
		}
	}
	for r := 1; r <= 4; r++ {
		for b := 0; b < numCells; b++ {
			if dist(a, b) == r {
				l.pairs = append(l.pairs, [3]int{a, b, 0})
			}
		}
	}
	return l
}

// bothFaulty is the exact probability that cells a and b are both faulty.
func (l *pairLaw) bothFaulty(a, b int) float64 {
	return 1 - l.healthy[a] - l.healthy[b] + clusterHealthy(l.cp, l.decay, l.numCells, l.dist, a, b)
}

// add tallies one trial with count faulty cells, faulty telling which.
func (l *pairLaw) add(count int, faulty func(c int) bool) {
	for i := range l.pairs {
		if faulty(l.pairs[i][0]) && faulty(l.pairs[i][1]) {
			l.pairs[i][2]++
		}
	}
	d := float64(count) - l.mu
	l.d1 += d
	l.d2 += d * d
	l.d4 += d * d * d * d
}

// check compares trials tallied trials with the law within |z| ≤ bound.
func (l *pairLaw) check(t *testing.T, trials int, bound float64) {
	t.Helper()
	worst := 0.0
	for _, pr := range l.pairs {
		a, b := pr[0], pr[1]
		p := l.bothFaulty(a, b)
		z := zScore(pr[2], trials, p)
		worst = max(worst, math.Abs(z))
		if math.Abs(z) > bound {
			t.Errorf("cells %d and %d (distance %d): both faulty in %d of %d trials, want p = %.5f (z = %.2f)",
				a, b, l.dist(a, b), pr[2], trials, p, z)
		}
	}
	variance := l.mu - l.mu*l.mu
	for a := 0; a < l.numCells; a++ {
		for b := a + 1; b < l.numCells; b++ {
			variance += 2 * l.bothFaulty(a, b)
		}
	}
	n := float64(trials)
	mean := l.d2 / n                          // sample mean of (X − μ)²
	se := math.Sqrt((l.d4/n - mean*mean) / n) // its standard error
	z := (mean - variance) / se
	if math.Abs(z) > bound {
		t.Errorf("fault count variance %.4f, want %.4f (z = %.2f)", mean, variance, z)
	}
	sampleMu, sampleVar := l.mu+l.d1/n, mean-(l.d1/n)*(l.d1/n)
	t.Logf("worst pair |z| = %.2f over %d pairs; count mean %.3f (exact %.3f), variance %.3f (exact %.3f, z = %.2f), α = μ²/(σ²−μ) = %.2f",
		worst, len(l.pairs), sampleMu, l.mu, sampleVar, variance, z, sampleMu*sampleMu/(sampleVar-sampleMu))
}

// TestConformanceClusteredPairs checks the clustered model's second-order
// law, the spatial correlation that is all it adds over independent faults,
// by simulation. For the cell nearest the array's middle, a, and every cell
// b at distance 1 to 4 from it, the fraction of trials in which both are
// faulty must match the exact 1 − P(a healthy) − P(b healthy) + P(both
// healthy) from clusterHealthy. The per-chip fault count X must have the
// variance that law implies summed over all pairs: the mean of (X − μ)²
// is checked against σ² = Σ_{a≠b} P(both faulty) + μ − μ², standardized
// by its own sample deviation. The moment estimate α = μ²/(σ² − μ) of the
// negative-binomial clustering parameter is logged. The cases, seeds aside,
// and the budget are TestConformanceClusteredMarginals': ClusteredBatch
// under hex distance on both DTMB(2,6) footprints and ClusteredGrid under
// Chebyshev distance on a 9×7 grid, each deviation within |z| ≤ 4.5. A
// sampler that drew every cell independently at its marginal would fail the
// variance check and the near pairs.
func TestConformanceClusteredPairs(t *testing.T) {
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
	for i, size := range []float64{2, 4, 8, 64} {
		// λ = 1 cluster per trial whatever the size.
		cp := ClusterParams{MeanDefects: size, ClusterSize: size}
		for j, arr := range []*layout.Array{para, hex} {
			name := [...]string{"parallelogram", "hexagon"}[j]
			t.Run(fmt.Sprintf("batch/%s/size=%g", name, size), func(t *testing.T) {
				law := newPairLaw(cp, cp.clusterDecay(6), arr.NumCells(), func(o, c int) int {
					return arr.Cell(layout.CellID(o)).Pos.Distance(arr.Cell(layout.CellID(c)).Pos)
				})
				in, b := NewInjector(int64(100*i+j+7)), NewTrialBatch(arr.NumCells())
				for k := 0; k < batches; k++ {
					if _, err := in.ClusteredBatch(arr, cp, WordTrials, b); err != nil {
						t.Fatal(err)
					}
					var counts [WordTrials]int
					for _, col := range b.cols {
						for w := col; w != 0; w &= w - 1 {
							counts[bits.TrailingZeros64(w)]++
						}
					}
					for trial, count := range counts {
						law.add(count, func(c int) bool { return b.cols[c]>>uint(trial)&1 == 1 })
					}
				}
				law.check(t, trials, bound)
			})
		}
		t.Run(fmt.Sprintf("grid/%dx%d/size=%g", gw, gh, size), func(t *testing.T) {
			law := newPairLaw(cp, cp.clusterDecay(8), gw*gh, func(o, c int) int {
				return maxAbs(o%gw-c%gw, o/gw-c/gw)
			})
			in := NewInjector(int64(100*i + 9))
			var fs *FaultSet
			for k := 0; k < trials; k++ {
				if fs, _, err = in.ClusteredGrid(gw, gh, cp, fs); err != nil {
					t.Fatal(err)
				}
				law.add(fs.Count(), func(c int) bool { return fs.IsFaulty(layout.CellID(c)) })
			}
			law.check(t, trials, bound)
		})
	}
}

// binomialPMF returns the Binomial(m, q) probabilities of 0..m.
func binomialPMF(m int, q float64) []float64 {
	pmf := make([]float64, m+1)
	lg, _ := math.Lgamma(float64(m + 1))
	for k := range pmf {
		lk, _ := math.Lgamma(float64(k + 1))
		lr, _ := math.Lgamma(float64(m - k + 1))
		pmf[k] = math.Exp(lg - lk - lr + float64(k)*math.Log(q) + float64(m-k)*math.Log1p(-q))
	}
	return pmf
}

// chiSquareZ is the Wilson–Hilferty normal deviate of Pearson's χ² between
// the observed counts obs and the expected ones want (which sum alike),
// over adjacent bins merged until each group expects at least 5, a short
// tail joining the last group. It returns 0 when that leaves one group.
func chiSquareZ(obs []int, want []float64) float64 {
	var oo, ee []float64
	o, e := 0.0, 0.0
	for k := range obs {
		o, e = o+float64(obs[k]), e+want[k]
		if e >= 5 {
			oo, ee = append(oo, o), append(ee, e)
			o, e = 0, 0
		}
	}
	if len(oo) < 2 {
		return 0
	}
	oo[len(oo)-1] += o
	ee[len(ee)-1] += e
	chi := 0.0
	for i := range oo {
		chi += (oo[i] - ee[i]) * (oo[i] - ee[i]) / ee[i]
	}
	df := float64(len(oo) - 1)
	return (math.Cbrt(chi/df) - (1 - 2/(9*df))) / math.Sqrt(2/(9*df))
}

// TestConformanceClusteredRings checks the law of one cluster ring by ring:
// ring r of a cluster holds growth·r slots, each failing independently with
// probability decay^r, so its fault count is Binomial(growth·r, decay^r).
// The hexagonal stencil (growth 6) and the square one (growth 8) are
// relabelled so that the center is always cell 0 and every slot of the walk
// marks a cell of its own; trials that seed exactly one cluster then read
// each ring's count off the columns. Per ring, the count histogram (χ²,
// Wilson–Hilferty deviate) and its mean must stay within |z| ≤ 4.5. Size
// 1024 reaches the 64-ring cap, whose survival products would underflow
// without the block restarts, so it must use more than one block; its
// clusters hold about a thousand faults over 12 480 slots, so it runs an
// eighth of the trials. Size 1 has no rings, and its walk must draw
// nothing.
func TestConformanceClusteredRings(t *testing.T) {
	const bound = 4.5
	calls := 20000 // about 7 400 one-cluster trials
	if testing.Short() {
		calls = 2000
	}
	arr, err := layout.BuildWithPrimaryTarget(layout.DTMB26(), 40)
	if err != nil {
		t.Fatal(err)
	}
	for _, growth := range []int{6, 8} {
		for _, size := range []float64{1, 2, 4, 8, 64, 1024} {
			t.Run(fmt.Sprintf("growth=%d/size=%g", growth, size), func(t *testing.T) {
				cp := ClusterParams{MeanDefects: size, ClusterSize: size} // λ = 1
				decay, seed := cp.clusterDecay(float64(growth)), int64(growth*10000)+int64(size)
				in := NewInjector(seed)
				st := in.squareStencil(1, 1, decay)
				if growth == 6 {
					st = in.hexStencil(arr, decay)
				}
				st.numCells = 1
				for j, d := range st.delta {
					st.grid[int(st.base[0])+int(d)] = int32(1 + j)
				}
				b := NewTrialBatch(1 + len(st.delta))
				if size == 1 {
					twin := NewInjector(seed)
					for k := 0; k < 100; k++ {
						in.clusters(st, cp.clusterRate(), 1, b)
						for c := twin.drawPoisson(newPoissonLaw(cp.clusterRate())); c > 0; c-- {
							twin.rng.Intn(1)
						}
					}
					if len(st.delta) != 0 || !sameStream(in, twin) {
						t.Fatalf("size 1 has %d ring slots, or its walk drew beyond the cluster counts and centers", len(st.delta))
					}
					return
				}
				if blocks := len(st.blocks) / 3; (size == 1024) != (blocks > 1) {
					t.Fatalf("%d survival blocks at size %g", blocks, size)
				}
				hist := make([][]int, st.maxR+1)
				for r := 1; r <= st.maxR; r++ {
					hist[r] = make([]int, growth*r+1)
				}
				used, runs := 0, calls
				if size == 1024 {
					runs /= 8
				}
				for k := 0; k < runs; k++ {
					if in.clusters(st, cp.clusterRate(), 1, b) != 1 {
						continue
					}
					used++
					slot := 1
					for r := 1; r <= st.maxR; r++ {
						count := 0
						for end := slot + growth*r; slot < end; slot++ {
							count += int(b.cols[slot])
						}
						hist[r][count]++
					}
				}
				worst := 0.0
				for r := 1; r <= st.maxR; r++ {
					m, q := growth*r, math.Pow(decay, float64(r))
					want := binomialPMF(m, q)
					sum := 0
					for k, n := range hist[r] {
						sum += k * n
						want[k] *= float64(used)
					}
					zMean := (float64(sum) - float64(used*m)*q) / math.Sqrt(float64(used*m)*q*(1-q))
					zChi := chiSquareZ(hist[r], want)
					worst = max(worst, math.Abs(zMean), math.Abs(zChi))
					if math.Abs(zMean) > bound || math.Abs(zChi) > bound {
						t.Errorf("ring %d: %d faults over %d clusters, want Binomial(%d, %.5f) (mean z = %.2f, χ² z = %.2f)",
							r, sum, used, m, q, zMean, zChi)
					}
				}
				t.Logf("%d rings, %d blocks, %d one-cluster trials: worst |z| = %.2f", st.maxR, len(st.blocks)/3, used, worst)
			})
		}
	}
}
