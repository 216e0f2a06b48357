package stats

import (
	"math"
	"strings"
	"testing"
)

func TestWilson95HalfMatchesUnclampedInterval(t *testing.T) {
	// Away from the clamped edges the reported interval's spread is exactly
	// twice the half-width.
	for _, p := range []Proportion{
		{Successes: 50, Trials: 100},
		{Successes: 900, Trials: 1000},
		{Successes: 3, Trials: 10},
	} {
		lo, hi := p.Wilson95()
		if lo <= 0 || hi >= 1 {
			t.Fatalf("%+v: test case hit a clamped edge (lo=%v hi=%v)", p, lo, hi)
		}
		if got, want := p.Wilson95Half(), (hi-lo)/2; math.Abs(got-want) > 1e-12 {
			t.Errorf("%+v: half-width %v, want %v", p, got, want)
		}
	}
}

func TestWilson95HalfConservativeAtEdges(t *testing.T) {
	// At the edges the reported interval is clamped, so its spread never
	// exceeds twice the unclamped half-width — the stopping quantity is
	// conservative.
	for _, p := range []Proportion{
		{Successes: 0, Trials: 100},
		{Successes: 100, Trials: 100},
		{Successes: 999, Trials: 1000},
	} {
		lo, hi := p.Wilson95()
		if (hi-lo)/2 > p.Wilson95Half()+1e-15 {
			t.Errorf("%+v: clamped spread %v exceeds half-width %v", p, (hi-lo)/2, p.Wilson95Half())
		}
	}
	if !math.IsInf(Proportion{}.Wilson95Half(), 1) {
		t.Error("zero-trials half-width must be +Inf")
	}
}

func TestSequentialCI(t *testing.T) {
	off := SequentialCI{}
	if off.Enabled() || off.Satisfied(1000, 1000) {
		t.Error("epsilon 0 must disable the rule")
	}
	rule := SequentialCI{Epsilon: 0.01}
	if !rule.Enabled() {
		t.Error("positive epsilon must enable the rule")
	}
	if rule.Satisfied(0, 0) {
		t.Error("no trials can never satisfy a precision target")
	}
	if rule.Satisfied(50, 100) {
		t.Error("100 trials at phat=0.5 cannot reach half-width 0.01")
	}
	// At phat ≈ 1 the Wilson half-width collapses quickly; 10k unanimous
	// trials are comfortably below 0.01.
	if !rule.Satisfied(10000, 10000) {
		t.Error("10000/10000 should satisfy epsilon 0.01")
	}
	// Monotone in trials at fixed phat: once satisfied, more data at the
	// same proportion stays satisfied.
	if rule.Satisfied(9990, 10000) && !rule.Satisfied(2*9990, 2*10000) {
		t.Error("rule not monotone in trials at fixed proportion")
	}
}

// poissonBinomialPMF returns the full probability mass function of the
// number of successes among independent Bernoulli trials with the given
// per-trial probabilities qs: pmf[k] = P(K = k), k = 0..len(qs). It is the
// heterogeneous generalization of BinomialWeights, computed by the standard
// O(n²) convolution recurrence, and serves as BinomialWeights' oracle:
// BinomialWeights(n, q, 0) equals poissonBinomialPMF of n copies of q.
func poissonBinomialPMF(qs []float64) []float64 {
	pmf := make([]float64, 1, len(qs)+1)
	pmf[0] = 1
	for _, q := range qs {
		pmf = append(pmf, 0)
		for k := len(pmf) - 1; k > 0; k-- {
			pmf[k] = pmf[k]*(1-q) + pmf[k-1]*q
		}
		pmf[0] *= 1 - q
	}
	return pmf
}

func TestBinomialWeightsAgainstPoissonBinomial(t *testing.T) {
	const n, q = 40, 0.07
	qs := make([]float64, n)
	for i := range qs {
		qs[i] = q
	}
	pmf := poissonBinomialPMF(qs)
	weights, tail := BinomialWeights(n, q, 1e-12)
	if tail > 1e-12 {
		t.Fatalf("tail %v exceeds requested bound", tail)
	}
	if len(weights) < 10 {
		t.Fatalf("head kept only %d strata at mean %v", len(weights), float64(n)*q)
	}
	for k := range weights {
		if math.Abs(weights[k]-pmf[k]) > 1e-12 {
			t.Errorf("k=%d: binomial %v vs poisson-binomial %v", k, weights[k], pmf[k])
		}
	}
}

func TestBinomialWeightsTruncation(t *testing.T) {
	weights, tail := BinomialWeights(1000, 0.001, 1e-6)
	if len(weights) > 20 {
		t.Errorf("q=0.001 head kept %d strata; truncation is not working", len(weights))
	}
	if tail < 0 || tail > 1e-6 {
		t.Errorf("tail %v outside [0, 1e-6]", tail)
	}
	sum := tail
	for _, w := range weights {
		sum += w
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("head + tail sums to %v, want 1", sum)
	}
}

func TestBinomialWeightsEdgeCases(t *testing.T) {
	if w, tail := BinomialWeights(-1, 0.5, 0); w != nil || tail != 0 {
		t.Errorf("negative n: %v, %v", w, tail)
	}
	if w, _ := BinomialWeights(10, 0, 0); len(w) != 1 || w[0] != 1 {
		t.Errorf("q=0: %v", w)
	}
	if w, _ := BinomialWeights(3, 1, 0); len(w) != 4 || w[3] != 1 || w[0] != 0 {
		t.Errorf("q=1: %v", w)
	}
}

func TestTableCSVQuoting(t *testing.T) {
	tb := Table{Columns: []string{"name", "note"}}
	tb.AddRow(`DTMB(2,6)`, `has "quotes" and, commas`)
	tb.AddRow("plain", "line\nbreak")
	got := tb.CSV()
	want := "name,note\n" +
		`"DTMB(2,6)","has ""quotes"" and, commas"` + "\n" +
		"plain,\"line\nbreak\"\n"
	if got != want {
		t.Errorf("CSV quoting:\ngot  %q\nwant %q", got, want)
	}
	// Cells without special characters must render byte-identically to their
	// input — existing CSV consumers see no change.
	if !strings.Contains(got, "\nplain,") {
		t.Error("plain cell was quoted")
	}
}
