package sweep

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"dmfb/internal/core"
	"dmfb/internal/layout"
	"dmfb/internal/yieldsim"
)

func TestSpecDefaultsAndNumPoints(t *testing.T) {
	var s Spec
	pts, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// Defaults: local strategy, four canonical designs, n=100, 11 ps.
	if want := 4 * 11; len(pts) != want {
		t.Fatalf("default spec expands to %d points, want %d", len(pts), want)
	}
	if got := s.NumPoints(); got != len(pts) {
		t.Errorf("NumPoints %d != len(Expand) %d", got, len(pts))
	}
	for i, pt := range pts {
		if pt.Index != i {
			t.Fatalf("point %d carries index %d", i, pt.Index)
		}
		if pt.Strategy != Local || pt.Design == "" || pt.SpareRows != 0 {
			t.Fatalf("default point %d malformed: %+v", i, pt)
		}
	}
}

func TestSpecExpandAxesPerStrategy(t *testing.T) {
	s := Spec{
		Strategies: []Strategy{None, Local, Shifted},
		Designs:    []string{"DTMB(2,6)"},
		NPrimaries: []int{30, 60},
		Ps:         []float64{0.9, 0.95, 1.0},
		SpareRows:  []int{1, 2},
	}
	pts, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// none: 2*3, local: 1*2*3, shifted: 2*2*3.
	if want := 6 + 6 + 12; len(pts) != want {
		t.Fatalf("%d points, want %d", len(pts), want)
	}
	if got := s.NumPoints(); got != len(pts) {
		t.Errorf("NumPoints %d != %d", got, len(pts))
	}
	for _, pt := range pts {
		switch pt.Strategy {
		case None:
			if pt.Design != "" || pt.SpareRows != 0 {
				t.Errorf("none point carries strategy axes: %+v", pt)
			}
		case Local:
			if pt.Design == "" || pt.SpareRows != 0 {
				t.Errorf("local point malformed: %+v", pt)
			}
		case Shifted:
			if pt.Design != "" || pt.SpareRows < 1 {
				t.Errorf("shifted point malformed: %+v", pt)
			}
		}
	}
	// Expansion is deterministic.
	again, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pts, again) {
		t.Error("Expand is not deterministic")
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []Spec{
		{Strategies: []Strategy{"bogus"}},
		{Designs: []string{"DTMB(9,9)"}},
		{NPrimaries: []int{0}},
		{Ps: []float64{1.5}},
		{Ps: []float64{math.NaN()}},
		{PMin: 0.9, PMax: 0.8, PPoints: 3},
		{PMin: 0.9, PMax: 1.0, PPoints: -1},
		{SpareRows: []int{0}, Strategies: []Strategy{Shifted}},
	}
	for i, s := range cases {
		if _, err := s.Expand(); err == nil {
			t.Errorf("case %d: invalid spec %+v accepted", i, s)
		}
	}
}

func TestEvaluateNoneMatchesClosedForm(t *testing.T) {
	pt := Point{Scenario: Scenario{Strategy: None, NPrimary: 50, P: 0.97}}
	res, err := EvaluateScenario(context.Background(), pt.Scenario, core.SimParams{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	want := yieldsim.NoRedundancy(0.97, 50)
	if res.Yield != want || res.CILo != want || res.CIHi != want || res.EffectiveYield != want {
		t.Errorf("none point %+v, want closed form %v everywhere", res, want)
	}
	if res.Runs != 0 || res.NTotal != 50 {
		t.Errorf("none point metadata %+v", res)
	}
}

func TestEvaluateLocalMatchesCore(t *testing.T) {
	// A served local-strategy answer must equal the library's answer for
	// the same design, n, p and simulation parameters, field by field,
	// with and without a precision target.
	for _, d := range layout.AllDesignsWithVariants() {
		for _, n := range []int{40, 100} {
			for _, p := range []float64{0.9, 0.99} {
				for _, eps := range []float64{0, 0.01} {
					sp := core.SimParams{Runs: 1000, Seed: 99, Epsilon: eps}
					name := fmt.Sprintf("%s/n=%d/p=%v/eps=%v", d.Name, n, p, eps)
					pt := Point{Scenario: Scenario{Strategy: Local, Design: d.Name, NPrimary: n, P: p}}
					res, err := EvaluateScenario(context.Background(), pt.Scenario, sp)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					chip, err := core.New(d, n)
					if err != nil {
						t.Fatal(err)
					}
					ya, err := chip.AnalyzeYieldContext(context.Background(), p, sp)
					if err != nil {
						t.Fatal(err)
					}
					if res.Successes != ya.Successes || res.Runs != ya.Runs || res.Yield != ya.Yield ||
						res.CILo != ya.CILo || res.CIHi != ya.CIHi || res.EffectiveYield != ya.EffectiveYield ||
						res.NoRedundancy != ya.NoRedundancy || res.NTotal != ya.NTotal {
						t.Errorf("%s: sweep %+v disagrees with core %+v", name, res, ya)
					}
				}
			}
		}
	}
}

func TestEvaluateShiftedBasics(t *testing.T) {
	sp := core.SimParams{Runs: 400, Seed: 3}
	at := func(p float64) PointResult {
		res, err := EvaluateScenario(context.Background(), Scenario{Strategy: Shifted, NPrimary: 36, SpareRows: 1, P: p}, sp)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if y := at(1.0).Yield; y != 1 {
		t.Errorf("yield at p=1 is %v, want 1", y)
	}
	lo, hi := at(0.90), at(0.99)
	if lo.Yield >= hi.Yield {
		t.Errorf("shifted yield not increasing in p: %v at 0.90 vs %v at 0.99", lo.Yield, hi.Yield)
	}
	if lo.NTotal <= lo.NPrimary {
		t.Errorf("shifted NTotal %d must exceed n %d (spare rows)", lo.NTotal, lo.NPrimary)
	}
	if want := yieldsim.NoRedundancy(0.90, 36); lo.NoRedundancy != want {
		t.Errorf("baseline %v, want %v", lo.NoRedundancy, want)
	}
}

func TestEvaluateUnknownStrategy(t *testing.T) {
	if _, err := EvaluateScenario(context.Background(), Scenario{Strategy: "bogus", NPrimary: 10, P: 0.9}, core.SimParams{}); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestYieldResultCarriesSuccesses(t *testing.T) {
	for _, succ := range []int{0, 1, 123, 400} {
		r := PointResult{Runs: 400, Successes: succ, Yield: float64(succ) / 400}
		if got := r.YieldResult().Successes; got != succ {
			t.Errorf("successes %d, want %d", got, succ)
		}
	}
	// The old reconstruction (round(Yield·Runs)) reported 0 successes for
	// closed-form and cached points, where Runs is 0; carried successes must
	// survive that case.
	cached := PointResult{Runs: 0, Successes: 37, Yield: 37.0 / 400}
	if got := cached.YieldResult().Successes; got != 37 {
		t.Errorf("cached-point successes %d, want 37", got)
	}
}

func TestPValuesSinglePoint(t *testing.T) {
	s := Spec{PMin: 0.95, PMax: 0.95, PPoints: 1}
	ps := s.PValues()
	if len(ps) != 1 || ps[0] != 0.95 {
		t.Errorf("PValues = %v", ps)
	}
}

func ExampleSpec_Expand() {
	s := Spec{
		Strategies: []Strategy{Local},
		Designs:    []string{"DTMB(2,6)"},
		NPrimaries: []int{100},
		Ps:         []float64{0.95, 0.99},
	}
	pts, _ := s.Expand()
	for _, pt := range pts {
		fmt.Printf("%d %s %s n=%d p=%v\n", pt.Index, pt.Strategy, pt.Design, pt.NPrimary, pt.P)
	}
	// Output:
	// 0 local DTMB(2,6) n=100 p=0.95
	// 1 local DTMB(2,6) n=100 p=0.99
}

func TestPPointsOnlyStillSweepsPaperRange(t *testing.T) {
	s := Spec{PPoints: 5}
	ps := s.PValues()
	if len(ps) != 5 || ps[0] != 0.90 || ps[4] != 1.00 {
		t.Errorf("PValues with only PPoints set = %v, want 0.90..1.00", ps)
	}
	s = Spec{PMin: 0.5, PMax: 0.7}
	ps = s.PValues()
	if len(ps) != 11 || ps[0] != 0.5 || ps[10] != 0.7 {
		t.Errorf("PValues with only range set = %v, want 11 points over [0.5,0.7]", ps)
	}
}
