package defects

import "math/rand"

// The fault-injection PRNG is math/rand's additive lagged-Fibonacci
// generator (Mitchell & Reeds; lags 607 and 273), reproduced here so the hot
// injection loops can draw without a call through the rand.Source
// interface. Its stream is exactly rand.NewSource(seed)'s: every estimate,
// golden fixture and served byte was computed from that stream, and
// TestSourceMatchesStdlib pins the two draw for draw.
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
)

// source is the generator state, laid out as math/rand's rngSource. The
// zero value is unusable; call Seed.
type source struct {
	tap  int // index into vec
	feed int // index into vec
	vec  [rngLen]int64
}

// rngCooked is the table math/rand XORs into every freshly seeded register,
// recovered from the stdlib generator itself (cookedTable) rather than
// copied: 607 opaque constants would be one more thing to get wrong.
var rngCooked = cookedTable()

// cookedTable recovers math/rand's rngCooked table from one seeded stdlib
// source. After Seed the register is seedWords(seed) XOR rngCooked, and
// each draw adds vec[tap] into vec[feed] and returns the sum. One lag of
// draws writes every register word exactly once, so the outputs are the
// final register; undoing the additive steps newest-first restores the
// seeded register, and XOR-ing away the seed words leaves the table.
func cookedTable() [rngLen]int64 {
	const seed = 1
	std := rand.NewSource(seed).(rand.Source64)
	s := source{tap: 0, feed: rngLen - rngTap}
	for k := 0; k < rngLen; k++ {
		s.tap, s.feed = back(s.tap), back(s.feed)
		s.vec[s.feed] = int64(std.Uint64())
	}
	for k := 0; k < rngLen; k++ {
		s.vec[s.feed] -= s.vec[s.tap]
		s.tap, s.feed = forward(s.tap), forward(s.feed)
	}
	var words [rngLen]int64
	seedWords(seed, &words)
	for i := range s.vec {
		s.vec[i] ^= words[i]
	}
	return s.vec
}

// back and forward step a register index one place down or up, wrapping.
func back(i int) int {
	if i--; i < 0 {
		i += rngLen
	}
	return i
}

func forward(i int) int {
	if i++; i == rngLen {
		i = 0
	}
	return i
}

// seedrand is math/rand's seeding LCG, x ← 48271·x mod (2³¹−1), in
// Schrage's overflow-free form.
func seedrand(x int32) int32 {
	const (
		a = 48271
		q = 44488
		r = 3399
	)
	hi := x / q
	lo := x % q
	x = a*lo - r*hi
	if x < 0 {
		x += int32max
	}
	return x
}

// seedWords fills w with the seed-dependent half of a seeded register:
// seed is reduced mod 2³¹−1 (0 maps to 89482311), the LCG is warmed up 20
// steps, and each word packs three further LCG outputs.
func seedWords(seed int64, w *[rngLen]int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := int32(seed)
	for i := -20; i < rngLen; i++ {
		x = seedrand(x)
		if i >= 0 {
			u := int64(x) << 40
			x = seedrand(x)
			u ^= int64(x) << 20
			x = seedrand(x)
			u ^= int64(x)
			w[i] = u
		}
	}
}

// Seed implements rand.Source: the register becomes exactly what
// rand.NewSource(seed) starts from.
func (s *source) Seed(seed int64) {
	s.tap, s.feed = 0, rngLen-rngTap
	seedWords(seed, &s.vec)
	for i := range s.vec {
		s.vec[i] ^= rngCooked[i]
	}
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
