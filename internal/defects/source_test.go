package defects

import (
	"math"
	"math/rand"
	"testing"

	"dmfb/internal/stats"
)

// TestSourcePinnedStreams pins the generator's first outputs for a few
// seeds — 0, ±1, 2³¹−1 and the int64 extremes — so any change to the
// seeding or the recurrence, which would move every estimate and golden
// fixture, fails here first. A Reseed onto the same seed must restart the
// same stream, and the seeded register must hold its forced odd word.
func TestSourcePinnedStreams(t *testing.T) {
	pinned := []struct {
		seed int64
		head [4]uint64
	}{
		{0, [4]uint64{0x9124196e08d5c11e, 0x496d7c3389758525, 0x9b181380bb454e4f, 0x27d8e62d724f8921}},
		{1, [4]uint64{0x8bf219f719441865, 0x3e4e88aeb8c81014, 0x9481ca350740b058, 0x745f6ae86ecf4322}},
		{-1, [4]uint64{0xaa22b6cdc5cf61e5, 0xf1748184c148192, 0x119bc2927d586159, 0x52114b077ae26869}},
		{1<<31 - 1, [4]uint64{0xf4e12cb85807e218, 0x496a1ce5ffe71d10, 0x118964337885957c, 0x2f299722e84459d3}},
		{math.MinInt64, [4]uint64{0xe7ee08b6e123a33e, 0xc954fef1760381e9, 0xaab1624004d1800e, 0x2966feef1769851a}},
		{math.MaxInt64, [4]uint64{0x71d3ef91617bd9c, 0x8bc3fbd043ba0725, 0x90425d03579be66, 0x9fefd2b38815e14b}},
	}
	for _, pin := range pinned {
		in := NewInjector(pin.seed ^ 0x5deece66d)
		in.src.Uint64()
		for round := 0; round < 2; round++ {
			if round == 1 {
				in = NewInjector(pin.seed)
				if in.src.vec[0]&1 == 0 {
					t.Fatalf("seed %d: register word 0 is even; the full period needs one odd word", pin.seed)
				}
			} else {
				in.Reseed(pin.seed)
			}
			for k, want := range pin.head {
				if got := in.rng.Uint64(); got != want {
					t.Fatalf("seed %d output %d: %#x, pinned %#x", pin.seed, k, got, want)
				}
			}
		}
	}
}

// TestSeedsSelectDistinctStreams checks the 64-bit seeding: seeds that
// agree mod 2³¹−1, which math/rand's source maps onto one stream, start
// distinct streams here, and so do the chunk seeds of a long SeedStream.
func TestSeedsSelectDistinctStreams(t *testing.T) {
	const mersenne31 = 1<<31 - 1
	chunks := stats.SeedStream(20240607, 400)
	for _, s := range append([]int64{0, 1, -1, 12345, math.MinInt64}, chunks[:20]...) {
		if rand.NewSource(s).Int63() != rand.NewSource(s+mersenne31).Int63() {
			t.Fatalf("seeds %d and %d+(2³¹−1) already differ under math/rand; the check is moot", s, s)
		}
		a, b := NewInjector(s), NewInjector(s+mersenne31)
		if a.src.Uint64() == b.src.Uint64() && a.src.Uint64() == b.src.Uint64() {
			t.Fatalf("seeds %d and %d+(2³¹−1) start the same stream", s, s)
		}
	}
	first := make(map[uint64]int64, len(chunks))
	for _, s := range chunks {
		x := NewInjector(s).src.Uint64()
		if prev, dup := first[x]; dup {
			t.Fatalf("chunk seeds %d and %d start the same stream", prev, s)
		}
		first[x] = s
	}
}

// forceAhead rewrites the register so that the k-th next output of s
// (1 ≤ k ≤ rngTap) is v. Up to rngTap steps ahead, the words that output
// is summed from are untouched by the draws before it.
func forceAhead(s *source, k int, v int64) {
	tap, feed := s.tap-k, s.feed-k
	if tap < 0 {
		tap += rngLen
	}
	if feed < 0 {
		feed += rngLen
	}
	s.vec[feed] = v - s.vec[tap]
}

// cloneInjector returns an injector on a copy of in's generator state.
func cloneInjector(in *Injector) *Injector {
	c := &Injector{src: in.src}
	c.rng = *rand.New(&c.src)
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
