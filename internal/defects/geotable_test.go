package defects

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refGap is the skip-sampler's gap of the raw draw y written out from its
// definition: min(floor(ln(1−uniform(y))/ln(1−q)), numCells).
func refGap(y uint64, q float64, numCells int) int {
	v := math.Floor(math.Log(1-float64(int64(y))/(1<<63)) / math.Log1p(-q))
	if v >= float64(numCells) {
		return numCells
	}
	return int(v)
}

// geoProbes returns the raw draws a table is checked at: 0, the last kept
// draw, and every threshold offset by 0, ±1, ±geoGuard and ±(geoGuard+1),
// clamped to the kept draws.
func geoProbes(g *geoTable) []uint64 {
	ys := []uint64{0, redrawFrom - 1}
	for _, t := range g.thresh[1 : len(g.thresh)-1] {
		for _, d := range []uint64{0, 1, geoGuard, geoGuard + 1} {
			if t+d < redrawFrom {
				ys = append(ys, t+d)
			}
			if t >= d && t-d < redrawFrom {
				ys = append(ys, t-d)
			}
		}
	}
	return ys
}

// TestDifferentialGeoTable pins the skip-sampler's gap table to the
// logarithm it replaces. At every probe and at random draws, lookup's k
// must count the thresholds at or below y, a draw lookup clears must get
// the logarithm's gap, and exact must always return it. Then the probes are
// planted into the stream, and a batch must draw the same fault sets as the
// scalar path, so the skip loop's fallback is exercised on the very draws
// that need it. Guard-band fallbacks must stay rare.
func TestDifferentialGeoTable(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, q := range []float64{1e-12, 1e-4, 0.001, 0.01, 0.05, skipMaxQ} {
		for _, numCells := range []int{1, 17, 64, 130, 300, 1000} {
			name := fmt.Sprintf("q=%g/cells=%d", q, numCells)
			var g geoTable
			g.build(q, numCells)
			last := len(g.thresh) - 2
			if last < 1 || last > numCells {
				t.Fatalf("%s: %d thresholds", name, last)
			}
			probes := geoProbes(&g)
			ys := append([]uint64(nil), probes...)
			for i := 0; i < 100000; i++ {
				ys = append(ys, uint64(rng.Int63n(redrawFrom)))
			}
			for _, y := range ys {
				want := refGap(y, q, numCells)
				k, ok := g.lookup(y)
				if at := sort.Search(last, func(j int) bool { return g.thresh[j+1] > y }); k != at {
					t.Fatalf("%s y=%d: lookup scanned to %d, but %d thresholds are at or below y", name, y, k, at)
				}
				if ok && k != want {
					t.Fatalf("%s y=%d: table gap %d outside the guard bands, logarithm %d", name, y, k, want)
				}
				if got := g.exact(y); got != want {
					t.Fatalf("%s y=%d: exact gap %d, logarithm %d", name, y, got, want)
				}
			}

			// Plant the probes into the stream, a window of at most rngTap
			// at a time (forceAhead's reach), and draw them through batches
			// and through the scalar path.
			p := 1 - q
			for off := 0; off < len(probes); off += rngTap {
				window := probes[off:min(off+rngTap, len(probes))]
				base := NewInjector(int64(off))
				for i, y := range window {
					forceAhead(&base.src, i+1, int64(y))
				}
				batchIn, scalarIn := cloneInjector(base), cloneInjector(base)
				b, fs := NewTrialBatch(numCells), NewFaultSet(numCells)
				// Every trial takes at least one draw, so rngTap trials
				// take the whole window.
				for batch := 0; batch*WordTrials < rngTap; batch++ {
					batchIn.BernoulliBatch(numCells, p, WordTrials, b)
					b.Finalize()
					for trial := 0; trial < WordTrials; trial++ {
						fs = scalarIn.BernoulliN(numCells, p, fs)
						if (b.Occupied()>>uint(trial)&1 == 1) != (fs.Count() > 0) || (fs.Count() > 0 && !rowEquals(b, trial, fs)) {
							t.Fatalf("%s probes %d+ batch %d trial %d: batch row differs from the scalar draw", name, off, batch, trial)
						}
					}
				}
				if !sameStream(batchIn, scalarIn) {
					t.Fatalf("%s probes %d+: batch and scalar streams diverged", name, off)
				}
			}
		}
	}

	var g geoTable
	g.build(0.05, 1000)
	const draws = 1000000
	fallbacks := 0
	for i := 0; i < draws; i++ {
		if _, ok := g.lookup(uint64(rng.Int63n(redrawFrom))); !ok {
			fallbacks++
		}
	}
	t.Logf("q=0.05, 1000 cells: %d of %d draws fell back to the logarithm", fallbacks, draws)
	if rate := float64(fallbacks) / draws; rate >= 1e-5 {
		t.Fatalf("q=0.05: %d of %d draws fell back to the logarithm (rate %g)", fallbacks, draws, rate)
	}
}
