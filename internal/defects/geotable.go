package defects

import (
	"math"
	"math/bits"
)

// geoTable draws the skip-sampler's geometric gaps by inverse transform
// instead of a logarithm, and draws exactly the gaps of the logarithm.
//
// The reference gap of one raw 63-bit draw y is logGap(uniform(y), ln(1−q)),
// g(y) = floor(ln(1−u)/ln(1−q)), and the skip loop only needs min(g(y), K)
// for an array of K cells. Threshold k, thresh[k] = 2⁶³·(−expm1(k·ln(1−q))),
// is, up to rounding, the first raw draw whose gap is at least k, so the
// table's gap is the number of thresholds at or below y. A Chen–Asau guide
// table indexed by the top bits of y holds, per bucket, the count of
// thresholds at or below the bucket's first draw, and the scan starts
// there; with more buckets than thresholds it takes on average under one
// compare beyond the first.
//
// Exactness. The computed thresholds and the computed g(y) each differ from
// the real-valued ones by rounding, which, measured in raw draws, is:
//
//   - uniform(y): y rounded to 53 bits, at most 2⁹ draws;
//   - 1−u: exact for u ≥ ½, else at most half an ulp of 2⁻⁵³, 2⁹ draws;
//   - math.Log, under 1 ulp: an error ε·|ln x| in ln x is 2⁶³·x·|ln x|·ε
//     draws, and x·|ln x| ≤ 1/e, so at most 2¹¹/e draws; the division by
//     ln(1−q) (half an ulp) and math.Log1p's own 1 ulp in ln(1−q) count
//     the same way, at most 2¹⁰/e and 2¹¹/e;
//   - the threshold: k·ln(1−q) carries ln(1−q)'s ulp plus half an ulp of
//     the product, at most 1.5·2¹¹/e draws by the same argument with e^z·|z|
//     ≤ 1/e, math.Expm1 under 1 ulp of a value below 1 adds 2¹⁰, and the
//     conversion to an integer truncates less than one draw.
//
// Together that is under 2¹³ raw draws, well below 2¹⁸. A draw more than
// geoGuard = 2³³ draws from every threshold therefore lies on the same side
// of each threshold under the table as under the logarithm, and gets the
// logarithm's gap; a draw within geoGuard of a threshold, or of 0, falls back
// to the logarithm on the same y. Either way one draw yields one gap, so the
// PRNG stream is the one the scalar path, source.gap, consumes. The guard
// bands cover about 2⁻²⁹ of the draws per threshold.
//
// Making thresh non-decreasing (each entry at least its predecessor) keeps
// every entry within the error above, since the real thresholds are
// non-decreasing; and then the two thresholds around y are its nearest, so
// checking those two checks every band.
type geoTable struct {
	q         float64
	numCells  int
	lnSurvive float64
	shift     uint     // y's guide bucket is y >> shift
	thresh    []uint64 // thresh[0] = 0, thresh[1..] as above, then MaxUint64
	guide     []uint64 // guide[b]: the thresholds at or below b << shift
	buf       []uint64 // the one backing store of thresh and guide
}

// geoGuard is the half-width, in raw draws, of the band around each
// threshold inside which the table defers to the logarithm.
const geoGuard = 1 << 33

// build fills the table for fault probability q in (0, skipMaxQ] over
// numCells cells, in one allocation that later builds reuse when it is
// large enough. Thresholds stop at the first one that reaches 2⁶³: no draw
// gets there, so no gap reaches it either.
func (g *geoTable) build(q float64, numCells int) {
	g.q, g.numCells, g.lnSurvive = q, numCells, math.Log1p(-q)
	if need := numCells + 2 + 1<<bits.Len(uint(numCells)); cap(g.buf) < need {
		g.buf = make([]uint64, need)
	}
	thresh := g.buf[:1:cap(g.buf)]
	thresh[0] = 0
	for k := 1; k <= numCells; k++ {
		t := uint64(-math.Expm1(float64(k)*g.lnSurvive) * (1 << 63))
		t = max(t, thresh[k-1])
		thresh = append(thresh, t)
		if t >= 1<<63 {
			break
		}
	}
	last := len(thresh) - 1
	g.thresh = append(thresh, math.MaxUint64)
	width := bits.Len(uint(last))
	g.shift = uint(63 - width)
	g.guide = g.buf[len(g.thresh) : len(g.thresh)+1<<width]
	k := 0
	for b := range g.guide {
		for k < last && g.thresh[k+1] <= uint64(b)<<g.shift {
			k++
		}
		g.guide[b] = uint64(k)
	}
}

// lookup returns the number k of thresholds at or below the raw draw y, and
// whether y lies clear of the guard bands around thresh[k] and thresh[k+1],
// in which case min(g(y), numCells) = k; otherwise exact(y) is the gap. The
// two are separate so that lookup inlines into the skip loop.
func (g *geoTable) lookup(y uint64) (int, bool) {
	k := int(g.guide[y>>g.shift])
	for g.thresh[k+1] <= y {
		k++
	}
	return k, y-g.thresh[k] >= geoGuard && g.thresh[k+1]-y > geoGuard
}

// exact is the logarithm's gap of the raw draw y < redrawFrom, capped at
// numCells.
func (g *geoTable) exact(y uint64) int {
	if v := logGap(uniform(y), g.lnSurvive); v < float64(g.numCells) {
		return int(v)
	}
	return g.numCells
}
