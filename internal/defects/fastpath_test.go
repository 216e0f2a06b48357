package defects

import (
	"math"
	"testing"

	"dmfb/internal/layout"
)

// TestReseedMatchesFreshInjector checks that Reseed rewinds onto exactly the
// stream a fresh injector would produce, regardless of prior use — the
// property the chunked kernel relies on when reusing one injector per worker.
func TestReseedMatchesFreshInjector(t *testing.T) {
	arr := testArray(t)
	used := NewInjector(1)
	// Dirty the injector's rng and pool with unrelated draws.
	var scratch *FaultSet
	scratch = used.Bernoulli(arr, 0.5, scratch)
	if _, err := used.FixedCount(arr, 17, PrimariesOnly, scratch); err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{0, 1, -4, 1 << 40} {
		used.Reseed(seed)
		fresh := NewInjector(seed)
		a := used.Bernoulli(arr, 0.9, nil)
		b := fresh.Bernoulli(arr, 0.9, nil)
		if !sameFaults(a, b) {
			t.Fatalf("seed %d: reseeded Bernoulli differs from fresh injector", seed)
		}
		ac, err := used.FixedCount(arr, 11, AllCells, a)
		if err != nil {
			t.Fatal(err)
		}
		bc, err := fresh.FixedCount(arr, 11, AllCells, b)
		if err != nil {
			t.Fatal(err)
		}
		if !sameFaults(ac, bc) {
			t.Fatalf("seed %d: reseeded FixedCount differs from fresh injector", seed)
		}
	}
}

func sameFaults(a, b *FaultSet) bool {
	if a.NumCells() != b.NumCells() || a.Count() != b.Count() {
		return false
	}
	for i := 0; i < a.NumCells(); i++ {
		if a.IsFaulty(layout.CellID(i)) != b.IsFaulty(layout.CellID(i)) {
			return false
		}
	}
	return true
}

// TestBernoulliGeomRate checks that the skip-sampler's realized fault rate
// matches the target q = 1−p (same marginal distribution as the per-cell
// scan), overall and at the first and last cell.
func TestBernoulliGeomRate(t *testing.T) {
	const numCells, p, draws = 400, 0.95, 3000
	if 1-p > skipMaxQ {
		t.Fatalf("p=%v is not on the skip-sampling side of the crossover", p)
	}
	in := NewInjector(5)
	var fs *FaultSet
	total := 0
	first, last := 0, 0
	for i := 0; i < draws; i++ {
		fs = in.BernoulliN(numCells, p, fs)
		total += fs.Count()
		if fs.IsFaulty(0) {
			first++
		}
		if fs.IsFaulty(numCells - 1) {
			last++
		}
	}
	q := 1 - p
	mean := float64(total) / draws
	want := q * numCells
	// 5-sigma band on the mean of `draws` binomial draws.
	sigma := 5 * math.Sqrt(float64(numCells)*q*p/draws)
	if math.Abs(mean-want) > sigma {
		t.Fatalf("mean fault count %.2f, want %.2f ± %.2f", mean, want, sigma)
	}
	// Boundary cells must carry the same marginal rate (off-by-one guard).
	cellSigma := 5 * math.Sqrt(q*p/draws)
	for name, hits := range map[string]int{"first": first, "last": last} {
		rate := float64(hits) / draws
		if math.Abs(rate-q) > cellSigma {
			t.Fatalf("%s cell fault rate %.4f, want %.4f ± %.4f", name, rate, q, cellSigma)
		}
	}
}

// TestBernoulliGeomDeterministicAndEdges pins seed determinism, dst reuse
// and allocations on the skip-sampling side, and the p-extremes and NaN of
// the sampler switch.
func TestBernoulliGeomDeterministicAndEdges(t *testing.T) {
	arr := testArray(t)
	a := NewInjector(3).Bernoulli(arr, 0.95, nil)
	b := NewInjector(3).Bernoulli(arr, 0.95, nil)
	if !sameFaults(a, b) {
		t.Fatal("same seed produced different skip-sampled fault sets")
	}
	reused := NewInjector(3).Bernoulli(arr, 0.95, NewFaultSet(arr.NumCells()))
	if !sameFaults(a, reused) {
		t.Fatal("dst reuse changed the draw")
	}
	if fs := NewInjector(1).BernoulliN(50, 1.0, nil); fs.Count() != 0 {
		t.Fatalf("p=1 produced %d faults", fs.Count())
	}
	if fs := NewInjector(1).BernoulliN(50, 0.0, nil); fs.Count() != 50 {
		t.Fatalf("p=0 produced %d faults, want all 50", fs.Count())
	}
	if fs := NewInjector(1).BernoulliN(50, math.NaN(), nil); fs.Count() != 0 {
		t.Fatalf("p=NaN produced %d faults, want 0", fs.Count())
	}
	allocs := testing.AllocsPerRun(100, func() { a = NewInjector(2).BernoulliN(arr.NumCells(), 0.95, a) })
	if allocs > 3 { // the injector itself; the draw must not add to it
		t.Fatalf("skip-sampling BernoulliN allocates %.1f times per run", allocs)
	}
}

// TestFixedCountPoolSteadyStateZeroAllocs pins the cached-pool fast path:
// after the first draw, fixed-count injection allocates nothing, one trial
// at a time or a word of trials at once.
func TestFixedCountPoolSteadyStateZeroAllocs(t *testing.T) {
	arr := testArray(t)
	in := NewInjector(4)
	var fs *FaultSet
	var err error
	b := NewTrialBatch(arr.NumCells())
	for _, domain := range []Domain{AllCells, PrimariesOnly} {
		if fs, err = in.FixedCount(arr, 20, domain, fs); err != nil { // warm pool + dst
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			var e error
			fs, e = in.FixedCount(arr, 20, domain, fs)
			if e != nil {
				t.Fatal(e)
			}
		})
		if allocs != 0 {
			t.Fatalf("%v: steady-state FixedCount allocates %.1f times per run, want 0", domain, allocs)
		}
		allocs = testing.AllocsPerRun(100, func() {
			if e := in.FixedCountBatch(arr, 20, domain, WordTrials, b); e != nil {
				t.Fatal(e)
			}
		})
		if allocs != 0 {
			t.Fatalf("%v: steady-state FixedCountBatch allocates %.1f times per run, want 0", domain, allocs)
		}
	}
}

// TestFixedCountHistoryIndependent checks that a dirty cached pool cannot
// leak into the next draw: the fault sequence for a seed is identical
// whether the injector is fresh or has served arbitrary prior draws.
func TestFixedCountHistoryIndependent(t *testing.T) {
	arr := testArray(t)
	dirty := NewInjector(0)
	var fs *FaultSet
	var err error
	for m := 1; m < 30; m += 7 { // leave the pool partially shuffled
		if fs, err = dirty.FixedCount(arr, m, AllCells, fs); err != nil {
			t.Fatal(err)
		}
	}
	dirty.Reseed(77)
	fresh := NewInjector(77)
	for i := 0; i < 10; i++ {
		a, err := dirty.FixedCount(arr, 15, AllCells, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fresh.FixedCount(arr, 15, AllCells, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !sameFaults(a, b) {
			t.Fatalf("draw %d: dirty-pool injector diverged from fresh injector", i)
		}
	}
}
