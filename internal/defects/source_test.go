package defects

import (
	"math"
	"math/rand"
	"testing"

	"dmfb/internal/stats"
)

// streamSeeds are the seeds the stream-identity tests cover: the Seed
// reduction's edge cases (0, the 0-substitute 89482311, 2³¹−1 which reduces
// to 0, negatives, the int64 extremes) plus a kernel-style chunk stream.
func streamSeeds() []int64 {
	seeds := []int64{0, 1, -1, 89482311, 2147483647, math.MinInt64, math.MaxInt64}
	return append(seeds, stats.SeedStream(20240607, 100)...)
}

// TestSourceMatchesStdlib pins the embedded generator to
// rand.New(rand.NewSource(seed)) draw for draw: the inlined Float64 the
// injection loops use, and Int63, Uint64, Intn (power-of-two and not) and
// NormFloat64 through the injector's rand.Rand view, with a Reseed midway.
func TestSourceMatchesStdlib(t *testing.T) {
	const draws = 4 * rngLen
	ns := []int{64, 1000, 607, 1 << 20, 3}
	for _, seed := range streamSeeds() {
		in := NewInjector(seed)
		ref := rand.New(rand.NewSource(seed))
		for k := 0; k < draws; k++ {
			if k == draws/2 {
				reseed := seed ^ 0x5deece66d
				in.Reseed(reseed)
				ref.Seed(reseed)
			}
			var got, want float64
			switch k % 6 {
			case 0, 1:
				got, want = in.src.float64(), ref.Float64()
			case 2:
				got, want = float64(in.rng.Int63()), float64(ref.Int63())
			case 3:
				n := ns[k%len(ns)]
				got, want = float64(in.rng.Intn(n)), float64(ref.Intn(n))
			case 4:
				got, want = in.rng.NormFloat64(), ref.NormFloat64()
			case 5:
				if g, w := in.rng.Uint64(), ref.Uint64(); g != w {
					t.Fatalf("seed %d draw %d: Uint64 %d, stdlib %d", seed, k, g, w)
				}
				continue
			}
			if got != want {
				t.Fatalf("seed %d draw %d (op %d): got %v, stdlib %v", seed, k, k%6, got, want)
			}
		}
	}
}

// forceAhead rewrites the register so that the k-th next output of s
// (1 ≤ k ≤ rngTap) is v. Up to rngTap steps ahead, the words that output
// is summed from are untouched by the draws before it.
func forceAhead(s *source, k int, v int64) {
	tap, feed := s.tap, s.feed
	for j := 0; j < k; j++ {
		tap, feed = back(tap), back(feed)
	}
	s.vec[feed] = v - s.vec[tap]
}

// cloneInjector returns an injector on a copy of in's generator state.
func cloneInjector(in *Injector) *Injector {
	c := &Injector{src: in.src}
	c.rng = rand.New(&c.src)
	return c
}

// TestDrawSkipsRoundingToOne plants Int63 outputs at and around 2⁶³−512,
// where float64(y)/(1<<63) rounds to 1, and checks that the inlined draws —
// scalar and batched — discard exactly the outputs rand.Rand.Float64
// discards, leaving the stream in the same place.
func TestDrawSkipsRoundingToOne(t *testing.T) {
	planted := map[int]int64{
		3:  math.MaxInt64,    // Int63 = 2⁶³−1: redrawn
		4:  -1,               // top bit masked off: 2⁶³−1 again, redrawn
		9:  redrawFrom,       // the first redrawn output
		10: redrawFrom - 1,   // the last kept output, just below 1
		40: redrawFrom + 300, // redrawn
	}
	base := NewInjector(17)
	for i := 0; i < 25; i++ { // start mid-register
		base.src.float64()
	}
	for k, v := range planted {
		forceAhead(&base.src, k, v)
	}

	raw := cloneInjector(base)
	skipped := 0
	for k := 1; k <= 50; k++ {
		y := raw.src.Int63()
		if want, ok := planted[k]; ok && y != want&rngMask {
			t.Fatalf("planted output %d reads %d, want %d", k, y, want&rngMask)
		}
		if float64(y)/(1<<63) == 1 {
			skipped++
		}
	}
	if skipped != 4 {
		t.Fatalf("%d planted outputs round to 1, want 4", skipped)
	}

	scalar, ref := cloneInjector(base), cloneInjector(base)
	for k := 0; k < 50; k++ {
		if got, want := scalar.src.float64(), ref.rng.Float64(); got != want {
			t.Fatalf("draw %d: inlined Float64 %v, rand.Rand.Float64 %v", k, got, want)
		}
	}

	const numCells, n, p = 7, 6, 0.5
	batched, ref := cloneInjector(base), cloneInjector(base)
	b := NewTrialBatch(numCells)
	batched.BernoulliBatch(numCells, p, n, b)
	want := make([]uint64, numCells)
	for trial := 0; trial < n; trial++ {
		for i := range want {
			if ref.rng.Float64() < 1-p {
				want[i] |= 1 << uint(trial)
			}
		}
	}
	for i := range want {
		if b.cols[i] != want[i] {
			t.Fatalf("cell %d: batch column %b, rand.Rand.Float64 reference %b", i, b.cols[i], want[i])
		}
	}
	if got, w := batched.rng.Float64(), ref.rng.Float64(); got != w {
		t.Fatalf("batch left the stream elsewhere: next %v, reference %v", got, w)
	}
}

// TestBelowIsTheUniformThreshold checks the integer coin threshold against
// its definition: below(u) is the count of Int63 outputs whose uniform is
// below u, so the output just under it passes the float comparison and the
// output at it fails.
func TestBelowIsTheUniformThreshold(t *testing.T) {
	if uniform(redrawFrom-1) >= 1 || float64(int64(redrawFrom))/(1<<63) != 1 {
		t.Fatalf("redrawFrom %d is not where float64(y)/(1<<63) reaches 1", uint64(redrawFrom))
	}
	rng := rand.New(rand.NewSource(3))
	us := []float64{0, -1, 1, 1.5, math.NaN(), math.Inf(1), 0.05, 0.001, 0.5,
		1 - 1.0/(1<<53), 1.0 / (1 << 53), math.SmallestNonzeroFloat64, 1 - 0.999}
	for i := 0; i < 200; i++ {
		us = append(us, rng.Float64(), math.Pow(10, -20*rng.Float64()))
	}
	for _, u := range us {
		th := below(u)
		if th > redrawFrom {
			t.Fatalf("below(%v) = %d exceeds the kept outputs", u, th)
		}
		if th > 0 && !(uniform(th-1) < u) {
			t.Fatalf("below(%v) = %d, but output %d's uniform %v is not below", u, th, th-1, uniform(th-1))
		}
		if th < redrawFrom && uniform(th) < u {
			t.Fatalf("below(%v) = %d, but output %d's uniform %v is below", u, th, th, uniform(th))
		}
	}
	if below(1) != redrawFrom {
		t.Fatalf("below(1) = %d, want every kept output", below(1))
	}
}
