package defects

import (
	"math"
	"reflect"
	"testing"

	"dmfb/internal/layout"
)

func clusterTestArray(t *testing.T) *layout.Array {
	t.Helper()
	arr, err := layout.BuildParallelogram(layout.DTMB26(), 24, 24)
	if err != nil {
		t.Fatal(err)
	}
	return arr
}

func TestClusteredDeterministicPerSeed(t *testing.T) {
	arr := clusterTestArray(t)
	cp := ClusterParams{MeanDefects: 20, ClusterSize: 4}
	draw := func(seed int64) ([]layout.CellID, int) {
		fs, clusters, err := NewInjector(seed).Clustered(arr, cp, nil)
		if err != nil {
			t.Fatal(err)
		}
		return fs.FaultyCells(), clusters
	}
	a, ca := draw(42)
	b, cb := draw(42)
	if !reflect.DeepEqual(a, b) || ca != cb {
		t.Fatalf("same seed produced different draws: %v (%d) vs %v (%d)", a, ca, b, cb)
	}
	c, _ := draw(43)
	if reflect.DeepEqual(a, c) && len(a) > 0 {
		t.Error("different seeds produced identical non-empty fault sets")
	}
}

func TestClusteredReusesDst(t *testing.T) {
	arr := clusterTestArray(t)
	cp := ClusterParams{MeanDefects: 10, ClusterSize: 3}
	in := NewInjector(1)
	fs, _, err := in.Clustered(arr, cp, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs2, _, err := in.Clustered(arr, cp, fs)
	if err != nil {
		t.Fatal(err)
	}
	if fs2 != fs {
		t.Error("Clustered did not reuse the provided fault set")
	}
}

// TestClusteredClusterCountDistribution pins the Poisson cluster-count law:
// across many draws the mean number of clusters is MeanDefects/ClusterSize.
func TestClusteredClusterCountDistribution(t *testing.T) {
	arr := clusterTestArray(t)
	cp := ClusterParams{MeanDefects: 24, ClusterSize: 4}
	in := NewInjector(2005)
	const draws = 4000
	total := 0
	var fs *FaultSet
	for i := 0; i < draws; i++ {
		var clusters int
		var err error
		fs, clusters, err = in.Clustered(arr, cp, fs)
		if err != nil {
			t.Fatal(err)
		}
		total += clusters
	}
	mean := float64(total) / draws
	want := cp.clusterRate() // 6
	// Poisson(6) sample mean over 4000 draws: σ ≈ √(6/4000) ≈ 0.039.
	if math.Abs(mean-want) > 0.2 {
		t.Errorf("mean cluster count %.3f, want %.3f ± 0.2", mean, want)
	}
}

// TestClusteredClusterSizeDistribution pins the geometric-decay cluster-size
// law: a single cluster seeded at the center of a large array contains
// ClusterSize cells in expectation.
func TestClusteredClusterSizeDistribution(t *testing.T) {
	arr := clusterTestArray(t)
	for _, size := range []float64{1, 2, 4, 8} {
		cp := ClusterParams{MeanDefects: size, ClusterSize: size} // rate 1
		in := NewInjector(7)
		const draws = 6000
		totalCells, totalClusters := 0, 0
		var fs *FaultSet
		for i := 0; i < draws; i++ {
			var clusters int
			var err error
			fs, clusters, err = in.Clustered(arr, cp, fs)
			if err != nil {
				t.Fatal(err)
			}
			// Only single-cluster draws measure the per-cluster size cleanly
			// (overlap and boundary truncation shrink multi-cluster draws).
			if clusters == 1 {
				totalCells += fs.Count()
				totalClusters++
			}
		}
		if totalClusters == 0 {
			t.Fatalf("size %g: no single-cluster draws", size)
		}
		mean := float64(totalCells) / float64(totalClusters)
		// Boundary truncation pulls the realized mean a little below the
		// interior expectation; allow 12% slack plus sampling noise.
		if mean > size*1.12 || mean < size*0.82 {
			t.Errorf("cluster size %g: mean realized size %.3f outside [%.2f, %.2f]",
				size, mean, size*0.82, size*1.12)
		}
	}
}

// TestClusteredSizeOneIsSpotDefects checks the degenerate case: cluster size
// 1 must never mark more cells than clusters (no ring spill).
func TestClusteredSizeOneIsSpotDefects(t *testing.T) {
	arr := clusterTestArray(t)
	cp := ClusterParams{MeanDefects: 12, ClusterSize: 1}
	in := NewInjector(11)
	var fs *FaultSet
	for i := 0; i < 200; i++ {
		var clusters int
		var err error
		fs, clusters, err = in.Clustered(arr, cp, fs)
		if err != nil {
			t.Fatal(err)
		}
		if fs.Count() > clusters {
			t.Fatalf("draw %d: %d faulty cells from %d size-1 clusters", i, fs.Count(), clusters)
		}
	}
}

func TestClusteredParamValidation(t *testing.T) {
	arr := clusterTestArray(t)
	in := NewInjector(1)
	bad := []ClusterParams{
		{MeanDefects: -1, ClusterSize: 2},
		{MeanDefects: 5, ClusterSize: 0.5},
		{MeanDefects: math.NaN(), ClusterSize: 2},
		{MeanDefects: 5, ClusterSize: math.NaN()},
		{MeanDefects: math.Inf(1), ClusterSize: 2},
		{MeanDefects: math.Inf(-1), ClusterSize: 2},
		{MeanDefects: 5, ClusterSize: math.Inf(1)},
		{MeanDefects: 5, ClusterSize: math.Inf(-1)},
		// Finite but so large that the decay rounds to 1 or turns NaN.
		{MeanDefects: 5, ClusterSize: 1e30},
		{MeanDefects: 5, ClusterSize: 1e154},
		{MeanDefects: 5, ClusterSize: 1e300},
	}
	for i, cp := range bad {
		if _, _, err := in.Clustered(arr, cp, nil); err == nil {
			t.Errorf("case %d: invalid params %+v accepted", i, cp)
		}
		if _, _, err := in.ClusteredGrid(10, 10, cp, nil); err == nil {
			t.Errorf("case %d: invalid grid params %+v accepted", i, cp)
		}
		if _, err := in.ClusteredBatch(arr, cp, WordTrials, NewTrialBatch(arr.NumCells())); err == nil {
			t.Errorf("case %d: invalid batch params %+v accepted", i, cp)
		}
	}
	if _, _, err := in.ClusteredGrid(0, 10, ClusterParams{MeanDefects: 1, ClusterSize: 2}, nil); err == nil {
		t.Error("zero-width grid accepted")
	}
	for _, size := range []float64{1, 1024} {
		cp := ClusterParams{MeanDefects: 5, ClusterSize: size}
		if err := cp.validate(); err != nil {
			t.Errorf("cluster size %v rejected: %v", size, err)
		}
	}
}

func TestClusteredGridDeterministicAndInBounds(t *testing.T) {
	cp := ClusterParams{MeanDefects: 15, ClusterSize: 5}
	const w, h = 18, 12
	draw := func(seed int64) []layout.CellID {
		fs, _, err := NewInjector(seed).ClusteredGrid(w, h, cp, nil)
		if err != nil {
			t.Fatal(err)
		}
		if fs.NumCells() != w*h {
			t.Fatalf("fault set sized %d, want %d", fs.NumCells(), w*h)
		}
		return fs.FaultyCells()
	}
	if a, b := draw(5), draw(5); !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed differs: %v vs %v", a, b)
	}
}

// TestClusteredGridClustersAreCompact checks the geometric decay: the cells
// of a single cluster stay within the deterministic radius bound of the
// center.
func TestClusteredGridClustersAreCompact(t *testing.T) {
	cp := ClusterParams{MeanDefects: 3, ClusterSize: 3}
	maxR := clusterRadius(cp.clusterDecay(8))
	const w, h = 40, 40
	in := NewInjector(3)
	var fs *FaultSet
	for i := 0; i < 300; i++ {
		var clusters int
		var err error
		fs, clusters, err = in.ClusteredGrid(w, h, cp, fs)
		if err != nil {
			t.Fatal(err)
		}
		if clusters != 1 {
			continue
		}
		cells := fs.FaultyCells()
		// Every faulty cell must lie within maxR (Chebyshev) of some faulty
		// cell acting as center; with one cluster, the spread of the whole
		// set is at most 2·maxR.
		for _, a := range cells {
			for _, b := range cells {
				ax, ay := int(a)%w, int(a)/w
				bx, by := int(b)%w, int(b)/w
				if d := maxAbs(ax-bx, ay-by); d > 2*maxR {
					t.Fatalf("cluster spread %d exceeds 2·maxR=%d", d, 2*maxR)
				}
			}
		}
	}
}

func TestClusterDecaySolvesExpectedSize(t *testing.T) {
	for _, k := range []float64{6, 8} {
		for _, size := range []float64{1, 1.5, 2, 4, 16} {
			cp := ClusterParams{MeanDefects: 1, ClusterSize: size}
			d := cp.clusterDecay(k)
			if d < 0 || d >= 1 {
				t.Fatalf("decay %v outside [0,1) for size %g", d, size)
			}
			want := size - 1
			got := k * d / ((1 - d) * (1 - d))
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("k=%g size=%g: ring sum %v, want %v", k, size, got, want)
			}
		}
	}
}

// poisson draws one Poisson(lambda) count the way a clustered batch draws
// its cluster counts.
func (in *Injector) poisson(lambda float64) int { return in.drawPoisson(newPoissonLaw(lambda)) }

// TestPoissonLargeLambda regresses the underflow of Knuth's product method:
// past λ ≈ 745, exp(−λ) leaves float64 range and the naive sampler caps its
// draws near 750. The chunked sampler must track the mean at rates the
// clustered model reaches on large arrays (λ = (1−p)·N/size).
func TestPoissonLargeLambda(t *testing.T) {
	in := NewInjector(99)
	for _, lambda := range []float64{500, 2000, 13600} {
		const draws = 200
		total := 0
		for i := 0; i < draws; i++ {
			total += in.poisson(lambda)
		}
		mean := float64(total) / draws
		// Sample-mean σ = sqrt(λ/draws); allow 5σ plus a little.
		tol := 6 * math.Sqrt(lambda/draws)
		if math.Abs(mean-lambda) > tol {
			t.Errorf("λ=%g: mean draw %.1f, want within %.1f", lambda, mean, tol)
		}
	}
}

func TestModelValidateAndParams(t *testing.T) {
	if err := (Model{}).Validate(); err != nil {
		t.Errorf("zero model invalid: %v", err)
	}
	for _, size := range []float64{0.2, math.NaN(), math.Inf(1), math.Inf(-1), 1e30, 1e154, 1e300} {
		if err := (Model{Clustered: true, ClusterSize: size}).Validate(); err == nil {
			t.Errorf("cluster size %v accepted", size)
		}
	}
	cp := Model{Clustered: true, ClusterSize: 4}.Params(0.95, 200)
	if math.Abs(cp.MeanDefects-10) > 1e-12 || cp.ClusterSize != 4 {
		t.Errorf("Params = %+v, want MeanDefects 10, ClusterSize 4", cp)
	}
}
