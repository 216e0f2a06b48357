// Package stats provides the small statistical toolkit shared by the yield
// simulators: deterministic PRNG stream splitting, summary statistics,
// Wilson score confidence intervals for Monte-Carlo success proportions, and
// series/table containers used by the experiment drivers.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// SplitMix64 advances and mixes a 64-bit state; used to derive independent
// per-worker PRNG seeds from one experiment seed so parallel Monte-Carlo
// remains reproducible regardless of worker count.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// SeedStream returns n deterministic, pairwise distinct 64-bit seeds
// derived from seed: the SplitMix64 outputs of n distinct states, through a
// bijective mix. defects.Injector seeds from all 64 bits, so each seed
// selects its own fault-injection stream. A math/rand source reduces seeds
// mod 2³¹−1 and gives no such guarantee.
func SeedStream(seed int64, n int) []int64 {
	state := uint64(seed)
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(SplitMix64(&state))
	}
	return out
}

// Proportion is a Monte-Carlo success proportion with its sample size.
type Proportion struct {
	Successes, Trials int
}

// Value returns successes/trials (0 when trials == 0).
func (p Proportion) Value() float64 {
	if p.Trials == 0 {
		return 0
	}
	return float64(p.Successes) / float64(p.Trials)
}

// z95 is the normal quantile for a two-sided 95% interval.
const z95 = 1.959963984540054

// Wilson95 returns the Wilson score 95% confidence interval for the
// proportion. Unlike the normal approximation it behaves sensibly at 0 and 1,
// where Monte-Carlo yield estimates often sit. At p̂ = 0 the exact lower
// bound is 0 and at p̂ = 1 the exact upper bound is 1; both are returned
// exactly, since center ∓ half rounds to a value just inside, which would
// exclude the estimate from its own interval.
func (p Proportion) Wilson95() (lo, hi float64) {
	if p.Trials == 0 {
		return 0, 1
	}
	n := float64(p.Trials)
	phat := p.Value()
	z := z95
	denom := 1 + z*z/n
	center := (phat + z*z/(2*n)) / denom
	half := z * math.Sqrt(phat*(1-phat)/n+z*z/(4*n*n)) / denom
	lo, hi = center-half, center+half
	if lo < 0 || p.Successes == 0 {
		lo = 0
	}
	if hi > 1 || p.Successes == p.Trials {
		hi = 1
	}
	return lo, hi
}

// Wilson95Half returns the half-width of the unclamped Wilson score 95%
// interval. The reported Wilson95 bounds are clamped to [0,1], so their
// spread never exceeds twice this value — which makes the unclamped
// half-width the conservative quantity for precision targets: once it is at
// or below ε, the reported interval is too.
func (p Proportion) Wilson95Half() float64 {
	if p.Trials == 0 {
		return math.Inf(1)
	}
	n := float64(p.Trials)
	phat := p.Value()
	z := z95
	return z * math.Sqrt(phat*(1-phat)/n+z*z/(4*n*n)) / (1 + z*z/n)
}

// Contains reports whether the Wilson 95% interval contains v.
func (p Proportion) Contains(v float64) bool {
	lo, hi := p.Wilson95()
	return v >= lo && v <= hi
}

// SequentialCI is the mid-stream stopping rule of precision-targeted
// Monte-Carlo sampling: stop as soon as the running success proportion's
// Wilson 95% half-width reaches the target Epsilon. Checking the Wilson
// width (rather than the normal-approximation width) keeps the rule sound
// at proportions near 0 and 1, exactly where yield estimates sit and where
// early stopping pays off most.
//
// Repeatedly testing a confidence interval mid-stream makes the realized
// coverage below the nominal 95% (the usual sequential-testing caveat); the
// kernel mitigates this by evaluating the rule only at chunk boundaries,
// never per trial, but does not correct for it. Nor is the stopped estimate
// unbiased in general: the stopping time depends on the data, so the
// proportion at the stopping boundary can be biased even though every
// fixed-size prefix is not. TestConformanceFixedRun checks coverage and
// bias of the fixed-run path only; ROADMAP item 2 records the measured bias
// of the early-stopped estimate near p → 1 and plans its test and fix.
type SequentialCI struct {
	// Epsilon is the target 95% half-width; zero or negative disables the
	// rule (Satisfied never fires).
	Epsilon float64
}

// Enabled reports whether the rule can ever fire.
func (s SequentialCI) Enabled() bool { return s.Epsilon > 0 }

// Satisfied reports whether an estimate with the given counts already meets
// the precision target.
func (s SequentialCI) Satisfied(successes, trials int) bool {
	if !s.Enabled() || trials <= 0 {
		return false
	}
	return Proportion{Successes: successes, Trials: trials}.Wilson95Half() <= s.Epsilon
}

// Series is a named (x, y) sequence, one curve of a paper figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Append adds one point to the series.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.X) }

// YAt returns the y value at the first x equal (within 1e-9) to x; ok
// reports whether the point exists.
func (s *Series) YAt(x float64) (y float64, ok bool) {
	for i, xv := range s.X {
		if math.Abs(xv-x) < 1e-9 {
			return s.Y[i], true
		}
	}
	return 0, false
}

// Table is a printable grid of rows, one paper table or figure data block.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns, suitable for terminal
// output and EXPERIMENTS.md blocks.
func (t Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as RFC-4180 comma-separated values: cells containing
// commas, double quotes, or line breaks are quoted, with embedded quotes
// doubled; all other cells render byte-identically to their input.
func (t Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(csvCell(cell))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// csvCell quotes one CSV cell per RFC 4180 when it needs it.
func csvCell(s string) string {
	if !strings.ContainsAny(s, ",\"\n\r") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// Linspace returns n evenly spaced values from lo to hi inclusive.
func Linspace(lo, hi float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[n-1] = hi
	return out
}
