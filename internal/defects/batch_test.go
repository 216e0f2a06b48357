package defects

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"dmfb/internal/layout"
)

// rowEquals reports whether trial t of the batch carries exactly the fault
// pattern of fs.
func rowEquals(b *TrialBatch, t int, fs *FaultSet) bool {
	row := b.Row(t)
	for w, want := range fs.Words() {
		if row[w] != want {
			return false
		}
	}
	return true
}

// TestTranspose64 pins the bit-matrix transpose against the naive
// definition on random matrices: bit j of input word i must land at bit i
// of output word j.
func TestTranspose64(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		var in, got [WordTrials]uint64
		for i := range in {
			in[i] = rng.Uint64()
		}
		got = in
		transpose64(&got)
		for i := 0; i < WordTrials; i++ {
			for j := 0; j < WordTrials; j++ {
				want := in[i] >> uint(j) & 1
				have := got[j] >> uint(i) & 1
				if want != have {
					t.Fatalf("transpose64: element (%d,%d) = %d, want %d", j, i, have, want)
				}
			}
		}
	}
}

// crossoverPs are survival probabilities on both sides of the sampler
// crossover: q just above skipMaxQ (per-cell scan), q at and just below it
// and the kernel's working range (skip-sampling), and the extremes the
// switch must route: q ≥ 1, q ≤ 0, NaN and the smallest positive q.
func crossoverPs() []float64 {
	return []float64{
		-0.5, 0, 0.5, 1 - skipMaxQ*(1+1e-6), // per-cell scan
		1 - skipMaxQ, 1 - skipMaxQ*(1-1e-6), 0.95, 0.99, 0.999, math.Nextafter(1, 0), // skip-sampling
		1, math.NaN(), // no fault
	}
}

// TestBernoulliBatchMatchesScalar pins the core batching contract: a batch
// of n trials consumes the identical PRNG stream as n successive scalar
// draws and packs the identical fault sets, across sizes that exercise
// partial last words and multi-word rows, on both sides of the sampler
// crossover.
func TestBernoulliBatchMatchesScalar(t *testing.T) {
	for _, numCells := range []int{1, 17, 64, 65, 130, 300, 1000} {
		for _, p := range crossoverPs() {
			for _, n := range []int{1, 7, WordTrials} {
				batchIn, scalarIn := NewInjector(99), NewInjector(99)
				b := NewTrialBatch(numCells)
				batchIn.BernoulliBatch(numCells, p, n, b)
				b.Finalize()
				fs := NewFaultSet(numCells)
				for trial := 0; trial < n; trial++ {
					fs = scalarIn.BernoulliN(numCells, p, fs)
					if hasFault := fs.Count() > 0; hasFault != (b.Occupied()>>uint(trial)&1 == 1) {
						t.Fatalf("cells=%d p=%v n=%d trial %d: occupied bit %v, scalar faults %d",
							numCells, p, n, trial, !hasFault, fs.Count())
					}
					if b.Occupied() != 0 && !rowEquals(b, trial, fs) {
						t.Fatalf("cells=%d p=%v n=%d trial %d: batch row differs from scalar draw",
							numCells, p, n, trial)
					}
				}
				// Post-batch stream positions agree iff the batch consumed
				// exactly the scalar path's draws.
				if bg, sg := batchIn.rng.Float64(), scalarIn.rng.Float64(); bg != sg {
					t.Fatalf("cells=%d p=%v n=%d: PRNG streams diverged (%v vs %v)",
						numCells, p, n, bg, sg)
				}
			}
		}
	}
}

// TestBernoulliBatchNaN pins the NaN edge case: like BernoulliN, a NaN
// survival probability marks nothing but still consumes every draw.
func TestBernoulliBatchNaN(t *testing.T) {
	in, ref := NewInjector(3), NewInjector(3)
	b := NewTrialBatch(50)
	in.BernoulliBatch(50, math.NaN(), 4, b)
	if b.Occupied() != 0 {
		t.Fatalf("NaN batch marked faults: occupied=%b", b.Occupied())
	}
	for i := 0; i < 4*50; i++ {
		ref.rng.Float64()
	}
	if bg, rg := in.rng.Float64(), ref.rng.Float64(); bg != rg {
		t.Fatalf("NaN batch consumed wrong number of draws (%v vs %v)", bg, rg)
	}
}

// TestBernoulliGeomBatchMatchesScalar pins the skip-sampling side of the
// crossover on its own, from q = skipMaxQ down to the smallest positive q,
// where the geometric gap outgrows every array: n successive BernoulliN
// calls and one batch draw the same gaps and mark the same cells.
func TestBernoulliGeomBatchMatchesScalar(t *testing.T) {
	for _, numCells := range []int{1, 64, 130} {
		for _, p := range []float64{1 - skipMaxQ, 0.97, 0.999, math.Nextafter(1, 0)} {
			n := 32
			batchIn, scalarIn := NewInjector(7), NewInjector(7)
			b := NewTrialBatch(numCells)
			batchIn.BernoulliBatch(numCells, p, n, b)
			b.Finalize()
			fs := NewFaultSet(numCells)
			for trial := 0; trial < n; trial++ {
				fs = scalarIn.BernoulliN(numCells, p, fs)
				if b.Occupied() != 0 && !rowEquals(b, trial, fs) {
					t.Fatalf("cells=%d p=%v trial %d: geom batch row differs", numCells, p, trial)
				}
				if fs.Count() == 0 && b.Occupied()>>uint(trial)&1 == 1 {
					t.Fatalf("cells=%d p=%v trial %d: occupied set for healthy trial", numCells, p, trial)
				}
			}
			if bg, sg := batchIn.rng.Float64(), scalarIn.rng.Float64(); bg != sg {
				t.Fatalf("cells=%d p=%v: geom PRNG streams diverged", numCells, p)
			}
		}
	}
}

// TestSamplerChoiceFollowsQ pins which sampler runs, by the draws it
// consumes: the per-cell scan takes one per cell and trial, at every q above
// skipMaxQ and for NaN; the skip-sampler takes one gap per fault plus one
// per trial, at every q in (0, skipMaxQ]; q ≤ 0 draws nothing.
func TestSamplerChoiceFollowsQ(t *testing.T) {
	const numCells, n = 130, 40
	for _, p := range crossoverPs() {
		in, ref := NewInjector(5), NewInjector(5)
		b := NewTrialBatch(numCells)
		in.BernoulliBatch(numCells, p, n, b)
		draws := 0
		switch q := 1 - p; {
		case q > skipMaxQ || math.IsNaN(q):
			draws = n * numCells
		case q > 0:
			b.Finalize()
			for trial := 0; trial < n; trial++ {
				for _, w := range b.Row(trial) {
					draws += bits.OnesCount64(w)
				}
			}
			draws += n
		}
		for i := 0; i < draws; i++ {
			ref.src.float64()
		}
		if got, want := in.rng.Float64(), ref.rng.Float64(); got != want {
			t.Fatalf("p=%v: the batch did not consume the %d draws of its sampler", p, draws)
		}
	}
}

// TestClusteredBatchMatchesScalar pins clustered batch injection to n
// successive one-trial draws, on a real hexagonal array (Clustered) and on a
// square grid (ClusteredGrid): identical fault patterns, identical cluster
// counts, identical stream position.
func TestClusteredBatchMatchesScalar(t *testing.T) {
	arr, err := layout.BuildWithPrimaryTarget(layout.DTMB26(), 60)
	if err != nil {
		t.Fatal(err)
	}
	const gw, gh = 11, 9
	cp := ClusterParams{MeanDefects: 5, ClusterSize: 4}
	for _, tc := range []struct {
		name     string
		numCells int
		batch    func(in *Injector, cp ClusterParams, n int, b *TrialBatch) (int, error)
		scalar   func(in *Injector, fs *FaultSet) (*FaultSet, int, error)
	}{
		{"hex", arr.NumCells(),
			func(in *Injector, cp ClusterParams, n int, b *TrialBatch) (int, error) {
				return in.ClusteredBatch(arr, cp, n, b)
			},
			func(in *Injector, fs *FaultSet) (*FaultSet, int, error) { return in.Clustered(arr, cp, fs) }},
		{"square-grid", gw * gh,
			func(in *Injector, cp ClusterParams, n int, b *TrialBatch) (int, error) {
				return in.ClusteredGridBatch(gw, gh, cp, n, b)
			},
			func(in *Injector, fs *FaultSet) (*FaultSet, int, error) { return in.ClusteredGrid(gw, gh, cp, fs) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = WordTrials
			batchIn, scalarIn := NewInjector(11), NewInjector(11)
			b := NewTrialBatch(tc.numCells)
			batchClusters, err := tc.batch(batchIn, cp, n, b)
			if err != nil {
				t.Fatal(err)
			}
			b.Finalize()
			fs := NewFaultSet(tc.numCells)
			scalarClusters := 0
			for trial := 0; trial < n; trial++ {
				next, c, err := tc.scalar(scalarIn, fs)
				if err != nil {
					t.Fatal(err)
				}
				fs = next
				scalarClusters += c
				if !rowEquals(b, trial, fs) {
					t.Fatalf("trial %d: clustered batch row differs from scalar draw", trial)
				}
			}
			if batchClusters != scalarClusters {
				t.Fatalf("batch seeded %d clusters, scalar %d", batchClusters, scalarClusters)
			}
			if bg, sg := batchIn.rng.Float64(), scalarIn.rng.Float64(); bg != sg {
				t.Fatal("clustered PRNG streams diverged")
			}
			if _, err := tc.batch(batchIn, ClusterParams{MeanDefects: -1, ClusterSize: 4}, 1, b); err == nil {
				t.Fatal("invalid cluster params accepted")
			}
			if _, err := tc.batch(batchIn, cp, 1, NewTrialBatch(tc.numCells+1)); err == nil {
				t.Fatal("batch sized for another cell count accepted")
			}
		})
	}
	in := NewInjector(1)
	if _, err := in.ClusteredGridBatch(0, gh, cp, 1, NewTrialBatch(1)); err == nil {
		t.Fatal("empty grid accepted")
	}
}

// TestTrialBatchReuse checks that Reset fully clears state between batches
// of different sizes, so a reused batch can never leak faults forward.
func TestTrialBatchReuse(t *testing.T) {
	b := NewTrialBatch(100)
	in := NewInjector(1)
	in.BernoulliBatch(100, 0.5, WordTrials, b)
	if b.Occupied() == 0 {
		t.Fatal("dense batch drew no faults")
	}
	in.BernoulliBatch(100, 1, 8, b)
	if b.Occupied() != 0 || b.N() != 8 {
		t.Fatalf("reused batch not cleared: occupied=%b n=%d", b.Occupied(), b.N())
	}
	b.Finalize() // no-op on an empty batch
	for i := range b.cols {
		if b.cols[i] != 0 {
			t.Fatalf("col %d survived Reset: %b", i, b.cols[i])
		}
	}
}
