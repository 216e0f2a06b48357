package defects

import "math"

// The fault-injection PRNG is an additive lagged-Fibonacci generator
// (Mitchell & Reeds; lags 607 and 273, the generator behind math/rand's
// source), kept inline so the hot injection loops can draw without a call
// through the rand.Source interface. Seeding is its own: Seed fills the
// 607-word register from SplitMix64 of the full 64-bit seed, so distinct
// seeds select distinct streams. TestSourcePinnedStreams pins the first
// outputs of a few seeds, and every estimate and golden fixture depends on
// them.
const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
)

// source is the generator state: the register vec and its cursor. The zero
// value is unusable; call Seed.
type source struct {
	tap  int // index into vec
	feed int // index into vec
	vec  [rngLen]int64
}

// Seed implements rand.Source. The register is the SplitMix64 sequence
// started at seed; each word is a bijection of the seed, so distinct seeds
// give distinct registers and therefore distinct streams. Word 0 is forced
// odd: an additive generator with an all-even register never sets its low
// bit, and one odd word is what keeps the full period.
func (s *source) Seed(seed int64) {
	s.tap, s.feed = 0, rngLen-rngTap
	x := uint64(seed)
	for i := range s.vec {
		x += 0x9e3779b97f4a7c15
		s.vec[i] = int64(mix64(x))
	}
	s.vec[0] |= 1
}

// mix64 is the splitmix64 finalizer: a bijection on 64-bit words with full
// avalanche.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// next advances the register one step from the cursor (tap, feed) and
// returns the 64-bit output with the advanced cursor. Taking and returning
// the cursor lets a hot loop keep it in registers across draws.
func (s *source) next(tap, feed int) (uint64, int, int) {
	tap--
	if tap < 0 {
		tap += rngLen
	}
	feed--
	if feed < 0 {
		feed += rngLen
	}
	x := s.vec[feed] + s.vec[tap]
	s.vec[feed] = x
	return uint64(x), tap, feed
}

// redrawFrom is the smallest Int63 output that rand.Rand.Float64 discards:
// from it up, float64(y)/(1<<63) rounds to 1 and Float64 draws again.
const redrawFrom = 1<<63 - 512

// draw is the Int63 output rand.Rand.Float64 would use next from the cursor
// (tap, feed): it skips, like Float64, every output at or above redrawFrom.
// Float64 returns uniform(y) of it.
func (s *source) draw(tap, feed int) (uint64, int, int) {
	for {
		var y uint64
		y, tap, feed = s.next(tap, feed)
		if y &= rngMask; y < redrawFrom {
			return y, tap, feed
		}
	}
}

// float64 is rand.Rand.Float64 on this source without the interface call,
// for call sites that interleave draws with other uses of the injector. It
// repeats draw's loop on the struct's cursor because routing the cursor
// through draw would push it past the compiler's inlining budget.
func (s *source) float64() float64 {
	for {
		var y uint64
		y, s.tap, s.feed = s.next(s.tap, s.feed)
		if y &= rngMask; y < redrawFrom {
			return uniform(y)
		}
	}
}

// gap draws the number of healthy cells before the next fault when each
// cell fails with probability q, given lnSurvive = ln(1−q): Geometric(q) as
// logGap of the next Float64. It is the scalar reference path: BernoulliN
// draws through it, and the batch skip-sampler's geoTable must reproduce
// it draw for draw.
func (s *source) gap(lnSurvive float64) float64 {
	return logGap(s.float64(), lnSurvive)
}

// logGap is floor(ln(1−u)/ln(1−q)) for a uniform u on [0,1), given
// lnSurvive = ln(1−q). Rounding 1−u to a float64 costs u's bits below
// 2⁻⁵³, which moves the fault rate only for q within a few orders of
// magnitude of 2⁻⁵³; in exchange math.Log runs about a third faster than
// math.Log1p(−u).
func logGap(u, lnSurvive float64) float64 {
	return math.Floor(math.Log(1-u) / lnSurvive)
}

// uniform is Float64's value for the Int63 output y < redrawFrom.
func uniform(y uint64) float64 { return float64(int64(y)) / (1 << 63) }

// below returns the number of Int63 outputs y whose uniform
// float64(y)/(1<<63) is below u. The uniform is non-decreasing in y, so
// those outputs are exactly [0, below(u)), and "y < below(u)" decides a
// Bernoulli coin without the float conversion or a data-dependent branch.
func below(u float64) uint64 {
	lo, hi := uint64(0), uint64(redrawFrom)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if uniform(mid) < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Uint64 implements rand.Source64.
func (s *source) Uint64() uint64 {
	var x uint64
	x, s.tap, s.feed = s.next(s.tap, s.feed)
	return x
}

// Int63 implements rand.Source.
func (s *source) Int63() int64 { return int64(s.Uint64() & rngMask) }
