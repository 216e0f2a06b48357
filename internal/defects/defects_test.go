package defects

import (
	"math"
	"testing"

	"dmfb/internal/layout"
)

func testArray(t *testing.T) *layout.Array {
	t.Helper()
	arr, err := layout.BuildParallelogram(layout.DTMB26(), 12, 12)
	if err != nil {
		t.Fatal(err)
	}
	return arr
}

func TestFaultSetBasics(t *testing.T) {
	fs := NewFaultSet(10)
	if fs.Count() != 0 || fs.NumCells() != 10 {
		t.Fatal("fresh fault set not empty")
	}
	fs.MarkFaulty(3)
	fs.MarkFaulty(3) // idempotent
	fs.MarkFaulty(7)
	if fs.Count() != 2 {
		t.Errorf("Count = %d, want 2", fs.Count())
	}
	if !fs.IsFaulty(3) || fs.IsFaulty(4) {
		t.Error("IsFaulty wrong")
	}
	cells := fs.FaultyCells()
	if len(cells) != 2 || cells[0] != 3 || cells[1] != 7 {
		t.Errorf("FaultyCells = %v", cells)
	}
	fs.Clear()
	if fs.Count() != 0 || fs.IsFaulty(3) {
		t.Error("Clear incomplete")
	}
}

func TestFaultyPartitionByRole(t *testing.T) {
	arr := testArray(t)
	fs := NewFaultSet(arr.NumCells())
	prim := arr.Primaries()[0]
	spare := arr.Spares()[0]
	fs.MarkFaulty(prim)
	fs.MarkFaulty(spare)
	fp := fs.FaultyPrimaries(arr)
	fsp := fs.FaultySpares(arr)
	if len(fp) != 1 || fp[0] != prim {
		t.Errorf("FaultyPrimaries = %v", fp)
	}
	if len(fsp) != 1 || fsp[0] != spare {
		t.Errorf("FaultySpares = %v", fsp)
	}
}

// TestBernoulliRateApproximation checks the realized fault rate against
// q = 1−p on both sides of the sampler crossover and at its extremes.
func TestBernoulliRateApproximation(t *testing.T) {
	arr := testArray(t)
	const rounds = 400
	for _, p := range crossoverPs() {
		in := NewInjector(1234)
		total := 0
		var fs *FaultSet
		for i := 0; i < rounds; i++ {
			fs = in.Bernoulli(arr, p, fs)
			total += fs.Count()
		}
		cells := float64(rounds * arr.NumCells())
		rate := float64(total) / cells
		q := math.Min(math.Max(1-p, 0), 1)
		if math.IsNaN(p) {
			q = 0
		}
		// 5 binomial sigmas, and at least one fault's worth for q near 0.
		if tol := math.Max(5*math.Sqrt(q*(1-q)/cells), 1/cells); math.Abs(rate-q) > tol {
			t.Errorf("p=%v: empirical failure rate %.5f, want %.5f ± %.5f", p, rate, q, tol)
		}
	}
}

func TestBernoulliEdgeProbabilities(t *testing.T) {
	arr := testArray(t)
	in := NewInjector(9)
	fs := in.Bernoulli(arr, 1.0, nil)
	if fs.Count() != 0 {
		t.Errorf("p=1: %d faults", fs.Count())
	}
	fs = in.Bernoulli(arr, 0.0, fs)
	if fs.Count() != arr.NumCells() {
		t.Errorf("p=0: %d faults, want %d", fs.Count(), arr.NumCells())
	}
}

func TestBernoulliReusesDst(t *testing.T) {
	arr := testArray(t)
	in := NewInjector(5)
	fs1 := in.Bernoulli(arr, 0.9, nil)
	fs2 := in.Bernoulli(arr, 0.9, fs1)
	if fs1 != fs2 {
		t.Error("Bernoulli should reuse matching dst")
	}
	wrong := NewFaultSet(3)
	fs3 := in.Bernoulli(arr, 0.9, wrong)
	if fs3 == wrong {
		t.Error("Bernoulli must replace mismatched dst")
	}
}

func TestBernoulliDeterministicPerSeed(t *testing.T) {
	arr := testArray(t)
	a := NewInjector(77).Bernoulli(arr, 0.9, nil)
	b := NewInjector(77).Bernoulli(arr, 0.9, nil)
	for i := 0; i < arr.NumCells(); i++ {
		if a.IsFaulty(layout.CellID(i)) != b.IsFaulty(layout.CellID(i)) {
			t.Fatal("same seed produced different fault sets")
		}
	}
}

func TestFixedCountExact(t *testing.T) {
	arr := testArray(t)
	in := NewInjector(31)
	for _, m := range []int{0, 1, 10, 35, arr.NumCells()} {
		fs, err := in.FixedCount(arr, m, AllCells, nil)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if fs.Count() != m {
			t.Errorf("m=%d: Count = %d", m, fs.Count())
		}
	}
}

func TestFixedCountPrimariesOnly(t *testing.T) {
	arr := testArray(t)
	in := NewInjector(8)
	fs, err := in.FixedCount(arr, 20, PrimariesOnly, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs.FaultySpares(arr)) != 0 {
		t.Error("primaries-only domain hit a spare")
	}
	if len(fs.FaultyPrimaries(arr)) != 20 {
		t.Errorf("faulty primaries %d, want 20", len(fs.FaultyPrimaries(arr)))
	}
}

func TestFixedCountErrors(t *testing.T) {
	arr := testArray(t)
	in := NewInjector(1)
	if _, err := in.FixedCount(arr, -1, AllCells, nil); err == nil {
		t.Error("negative m should fail")
	}
	if _, err := in.FixedCount(arr, arr.NumCells()+1, AllCells, nil); err == nil {
		t.Error("m > cells should fail")
	}
	if _, err := in.FixedCount(arr, 1, Domain(9), nil); err == nil {
		t.Error("unknown domain should fail")
	}
}

func TestFixedCountUniformity(t *testing.T) {
	// Every cell should be hit roughly equally often.
	arr := testArray(t)
	in := NewInjector(2024)
	hits := make([]int, arr.NumCells())
	const rounds = 3000
	var fs *FaultSet
	var err error
	for i := 0; i < rounds; i++ {
		fs, err = in.FixedCount(arr, 10, AllCells, fs)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range fs.FaultyCells() {
			hits[id]++
		}
	}
	expected := float64(rounds*10) / float64(arr.NumCells())
	for id, h := range hits {
		if math.Abs(float64(h)-expected) > expected*0.35 {
			t.Errorf("cell %d hit %d times, expected ≈ %.0f", id, h, expected)
		}
	}
}

func TestDomainString(t *testing.T) {
	if AllCells.String() != "all-cells" || PrimariesOnly.String() != "primaries-only" {
		t.Error("Domain.String wrong")
	}
}

func BenchmarkBernoulli(b *testing.B) {
	arr, err := layout.BuildWithPrimaryTarget(layout.DTMB26(), 100)
	if err != nil {
		b.Fatal(err)
	}
	in := NewInjector(1)
	var fs *FaultSet
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs = in.Bernoulli(arr, 0.95, fs)
	}
}

func BenchmarkFixedCount35(b *testing.B) {
	arr, err := layout.BuildWithPrimaryTarget(layout.DTMB26(), 252)
	if err != nil {
		b.Fatal(err)
	}
	in := NewInjector(1)
	var fs *FaultSet
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		fs, err = in.FixedCount(arr, 35, AllCells, fs)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func TestBernoulliNDeterministicAndReusesDst(t *testing.T) {
	const n = 200
	fs1 := NewInjector(9).BernoulliN(n, 0.9, nil)
	fs2 := NewInjector(9).BernoulliN(n, 0.9, nil)
	if fs1.Count() == 0 || fs1.Count() == n {
		t.Fatalf("degenerate fault count %d", fs1.Count())
	}
	for i := 0; i < n; i++ {
		if fs1.IsFaulty(layout.CellID(i)) != fs2.IsFaulty(layout.CellID(i)) {
			t.Fatalf("same seed diverged at cell %d", i)
		}
	}
	// A matching-size dst is cleared and reused; a mismatched one replaced.
	reused := NewInjector(10).BernoulliN(n, 1.0, fs1)
	if reused != fs1 {
		t.Error("matching-size dst not reused")
	}
	if reused.Count() != 0 {
		t.Errorf("p=1 left %d faults", reused.Count())
	}
	replaced := NewInjector(10).BernoulliN(n+1, 0.9, fs1)
	if replaced == fs1 {
		t.Error("mismatched dst must be replaced")
	}
	if replaced.NumCells() != n+1 {
		t.Errorf("replacement sized %d", replaced.NumCells())
	}
}

func TestBernoulliNAllFailAtPZero(t *testing.T) {
	fs := NewInjector(1).BernoulliN(50, 0, nil)
	if fs.Count() != 50 {
		t.Errorf("p=0 failed %d of 50 cells", fs.Count())
	}
}
