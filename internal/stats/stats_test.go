package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSeedStreamDeterministicAndDistinct(t *testing.T) {
	a := SeedStream(42, 16)
	b := SeedStream(42, 16)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed stream not deterministic at %d", i)
		}
	}
	seen := map[int64]bool{}
	for _, s := range a {
		if seen[s] {
			t.Fatalf("duplicate seed %d", s)
		}
		seen[s] = true
	}
	c := SeedStream(43, 16)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different master seeds produced identical streams")
	}
}

func TestSplitMix64AdvancesState(t *testing.T) {
	state := uint64(7)
	v1 := SplitMix64(&state)
	v2 := SplitMix64(&state)
	if v1 == v2 {
		t.Error("consecutive outputs equal; state not advancing")
	}
}

func TestProportionValue(t *testing.T) {
	if (Proportion{}).Value() != 0 {
		t.Error("empty proportion should be 0")
	}
	p := Proportion{Successes: 30, Trials: 40}
	if math.Abs(p.Value()-0.75) > 1e-12 {
		t.Errorf("Value = %v", p.Value())
	}
}

func TestWilson95Properties(t *testing.T) {
	f := func(succ uint16, extra uint16) bool {
		trials := int(succ) + int(extra)
		if trials == 0 {
			return true
		}
		p := Proportion{Successes: int(succ), Trials: trials}
		lo, hi := p.Wilson95()
		v := p.Value()
		return lo >= 0 && hi <= 1 && lo <= v && v <= hi && p.Contains(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestWilson95ContainsEstimateAtBothEnds checks the interval at p̂ = 0 and
// p̂ = 1 for every trial count up to 65,536: the bound on the estimate's side
// is exactly 0 or 1, so the interval always contains its own estimate.
func TestWilson95ContainsEstimateAtBothEnds(t *testing.T) {
	for trials := 1; trials <= 1<<16; trials++ {
		if lo, _ := (Proportion{Successes: 0, Trials: trials}).Wilson95(); lo != 0 {
			t.Fatalf("0/%d: lo = %v, want exactly 0", trials, lo)
		}
		if _, hi := (Proportion{Successes: trials, Trials: trials}).Wilson95(); hi != 1 {
			t.Fatalf("%d/%d: hi = %v, want exactly 1", trials, trials, hi)
		}
	}
}

func TestWilson95KnownValue(t *testing.T) {
	// 8/10 successes: Wilson interval ≈ [0.4902, 0.9433].
	p := Proportion{Successes: 8, Trials: 10}
	lo, hi := p.Wilson95()
	if math.Abs(lo-0.4902) > 5e-3 || math.Abs(hi-0.9433) > 5e-3 {
		t.Errorf("Wilson95 = [%.4f, %.4f], want ≈ [0.4902, 0.9433]", lo, hi)
	}
}

func TestWilson95ShrinksWithTrials(t *testing.T) {
	small := Proportion{Successes: 9, Trials: 10}
	large := Proportion{Successes: 9000, Trials: 10000}
	slo, shi := small.Wilson95()
	llo, lhi := large.Wilson95()
	if (lhi - llo) >= (shi - slo) {
		t.Errorf("interval did not shrink: small %.4f, large %.4f", shi-slo, lhi-llo)
	}
}

func TestWilsonEmptyTrials(t *testing.T) {
	lo, hi := (Proportion{}).Wilson95()
	if lo != 0 || hi != 1 {
		t.Errorf("empty proportion interval [%v,%v], want [0,1]", lo, hi)
	}
}

func TestSeriesAppendAndLookup(t *testing.T) {
	var s Series
	s.Name = "DTMB(1,6) n=100"
	s.Append(0.9, 0.5)
	s.Append(0.95, 0.8)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if y, ok := s.YAt(0.95); !ok || y != 0.8 {
		t.Errorf("YAt(0.95) = %v,%v", y, ok)
	}
	if _, ok := s.YAt(0.93); ok {
		t.Error("YAt should miss absent x")
	}
}

func TestTableStringAlignsAndContainsData(t *testing.T) {
	tb := Table{Title: "Table 1", Columns: []string{"Design", "RR"}}
	tb.AddRow("DTMB(1,6)", "0.1667")
	tb.AddRow("DTMB(4,4)", "1.0000")
	s := tb.String()
	for _, want := range []string{"Table 1", "Design", "RR", "DTMB(1,6)", "0.1667", "DTMB(4,4)"} {
		if !strings.Contains(s, want) {
			t.Errorf("table output missing %q:\n%s", want, s)
		}
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	// title + header + rule + 2 rows
	if len(lines) != 5 {
		t.Errorf("table has %d lines, want 5:\n%s", len(lines), s)
	}
}

func TestTableCSV(t *testing.T) {
	tb := Table{Columns: []string{"p", "yield"}}
	tb.AddRow("0.95", "0.8321")
	csv := tb.CSV()
	if csv != "p,yield\n0.95,0.8321\n" {
		t.Errorf("CSV = %q", csv)
	}
}

func TestLinspace(t *testing.T) {
	if Linspace(0, 1, 0) != nil {
		t.Error("n=0 should be nil")
	}
	one := Linspace(3, 9, 1)
	if len(one) != 1 || one[0] != 3 {
		t.Errorf("n=1: %v", one)
	}
	xs := Linspace(0.8, 1.0, 5)
	want := []float64{0.8, 0.85, 0.9, 0.95, 1.0}
	if len(xs) != 5 {
		t.Fatalf("len = %d", len(xs))
	}
	for i := range xs {
		if math.Abs(xs[i]-want[i]) > 1e-12 {
			t.Errorf("xs[%d] = %v, want %v", i, xs[i], want[i])
		}
	}
	if xs[4] != 1.0 {
		t.Error("endpoint must be exact")
	}
}
