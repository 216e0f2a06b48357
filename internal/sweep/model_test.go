package sweep

import (
	"context"
	"math"
	"reflect"
	"testing"

	"dmfb/internal/core"
)

func TestSpecExpandDefectModelAxis(t *testing.T) {
	s := Spec{
		Strategies:   []Strategy{None, Hex},
		Designs:      []string{"DTMB(2,6)"},
		NPrimaries:   []int{30},
		Ps:           []float64{0.9, 0.95},
		DefectModels: []DefectModel{Independent, Clustered},
		ClusterSize:  5,
	}
	pts, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// none: 2 models × 2 ps; hex: 2 models × 1 design × 2 ps.
	if want := 4 + 4; len(pts) != want {
		t.Fatalf("%d points, want %d", len(pts), want)
	}
	if got := s.NumPoints(); got != len(pts) {
		t.Errorf("NumPoints %d != len(Expand) %d", got, len(pts))
	}
	for _, pt := range pts {
		switch pt.DefectModel {
		case Independent:
			if pt.ClusterSize != 0 {
				t.Errorf("independent point carries cluster size: %+v", pt)
			}
		case Clustered:
			if pt.ClusterSize != 5 {
				t.Errorf("clustered point cluster size %v, want 5", pt.ClusterSize)
			}
		default:
			t.Errorf("point with unexpected model %q", pt.DefectModel)
		}
		if pt.Strategy == Hex && pt.Design == "" {
			t.Errorf("hex point without design: %+v", pt)
		}
	}
	// Model varies slower than p within a strategy.
	if pts[0].DefectModel != Independent || pts[2].DefectModel != Clustered {
		t.Errorf("model ordering wrong: %+v", pts[:4])
	}
}

func TestSpecDefaultsKeepIndependentModel(t *testing.T) {
	var s Spec
	pts, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range pts {
		if pt.DefectModel != Independent || pt.ClusterSize != 0 {
			t.Fatalf("default point carries non-default model: %+v", pt)
		}
	}
}

func TestSpecValidationModelAxes(t *testing.T) {
	cases := []Spec{
		{DefectModels: []DefectModel{"weird"}},
		{ClusterSize: 0.5, DefectModels: []DefectModel{Clustered}},
		{ClusterSize: math.NaN(), DefectModels: []DefectModel{Clustered}},
		{ClusterSize: math.Inf(1), DefectModels: []DefectModel{Clustered}},
		{ClusterSize: math.Inf(-1), DefectModels: []DefectModel{Clustered}},
		{Strategies: []Strategy{"hexagonal"}},
	}
	for i, s := range cases {
		if _, err := s.Expand(); err == nil {
			t.Errorf("case %d: invalid spec %+v accepted", i, s)
		}
	}
}

func TestEvaluateHexPoint(t *testing.T) {
	sp := core.SimParams{Runs: 300, Seed: 5}
	pt := Point{Scenario: Scenario{Strategy: Hex, Design: "DTMB(2,6)", NPrimary: 40, P: 0.95, DefectModel: Independent}}
	res, err := EvaluateScenario(context.Background(), pt.Scenario, sp)
	if err != nil {
		t.Fatal(err)
	}
	if res.NTotal <= pt.NPrimary {
		t.Errorf("hex NTotal %d not above n %d", res.NTotal, pt.NPrimary)
	}
	if res.Runs != 300 || res.Seed != 5 {
		t.Errorf("runs/seed not recorded: %+v", res)
	}
	if res.Yield < 0 || res.Yield > 1 {
		t.Errorf("yield %v", res.Yield)
	}
	if want := res.Yield * float64(pt.NPrimary) / float64(res.NTotal); math.Abs(res.EffectiveYield-want) > 1e-12 {
		t.Errorf("effective yield %v, want %v", res.EffectiveYield, want)
	}
	// Deterministic.
	again, err := EvaluateScenario(context.Background(), pt.Scenario, sp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Error("hex evaluation not deterministic")
	}
}

func TestEvaluateClusteredNoneClosedForm(t *testing.T) {
	pt := Point{Scenario: Scenario{Strategy: None, NPrimary: 40, P: 0.95, DefectModel: Clustered, ClusterSize: 4}}
	res, err := EvaluateScenario(context.Background(), pt.Scenario, core.SimParams{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Exp(-0.05 * 40 / 4)
	if math.Abs(res.Yield-want) > 1e-12 {
		t.Errorf("clustered none yield %v, want exp(-λ) = %v", res.Yield, want)
	}
	if res.Runs != 0 {
		t.Errorf("closed-form point reports %d runs", res.Runs)
	}
}

// TestEvaluateClusteredNoneDefaultsClusterSize is the regression pin for the
// unguarded division: a zero ClusterSize on the direct Evaluate path used to
// reach the closed form as exp(-Inf) = 0 silently. It must normalize to the
// default cluster size instead.
func TestEvaluateClusteredNoneDefaultsClusterSize(t *testing.T) {
	pt := Point{Scenario: Scenario{Strategy: None, NPrimary: 40, P: 0.95, DefectModel: Clustered}}
	res, err := EvaluateScenario(context.Background(), pt.Scenario, core.SimParams{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Exp(-0.05 * 40 / DefaultClusterSize)
	if math.Abs(res.Yield-want) > 1e-12 {
		t.Errorf("zero cluster size: yield %v, want default-size closed form %v", res.Yield, want)
	}
	if res.Yield == 0 {
		t.Error("zero cluster size still collapses the closed form to 0")
	}
	if res.ClusterSize != DefaultClusterSize {
		t.Errorf("result cluster size %v, want normalized default %v", res.ClusterSize, DefaultClusterSize)
	}
}

// TestEvaluateScenarioRejectsInvalid checks EvaluateScenario validates up
// front: unnormalizable cluster sizes and malformed axes return an
// invalid-scenario error instead of silently computing nonsense.
func TestEvaluateScenarioRejectsInvalid(t *testing.T) {
	for name, sc := range map[string]Scenario{
		"cluster size below 1": {Strategy: None, NPrimary: 40, P: 0.95, DefectModel: Clustered, ClusterSize: 0.5},
		"cluster size NaN":     {Strategy: None, NPrimary: 40, P: 0.95, DefectModel: Clustered, ClusterSize: math.NaN()},
		"cluster size +Inf":    {Strategy: None, NPrimary: 40, P: 0.95, DefectModel: Clustered, ClusterSize: math.Inf(1)},
		"cluster size -Inf":    {Strategy: None, NPrimary: 40, P: 0.95, DefectModel: Clustered, ClusterSize: math.Inf(-1)},
		"negative p":           {Strategy: None, NPrimary: 40, P: -0.1},
		"no primaries":         {Strategy: None, NPrimary: 0, P: 0.95},
	} {
		if _, err := EvaluateScenario(context.Background(), sc, core.SimParams{}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestEvaluateClusteredLocalAndShifted(t *testing.T) {
	sp := core.SimParams{Runs: 300, Seed: 2}
	for _, pt := range []Point{
		{Scenario: Scenario{Strategy: Local, Design: "DTMB(3,6)", NPrimary: 40, P: 0.94, DefectModel: Clustered, ClusterSize: 4}},
		{Scenario: Scenario{Strategy: Shifted, SpareRows: 1, NPrimary: 40, P: 0.94, DefectModel: Clustered, ClusterSize: 4}},
	} {
		res, err := EvaluateScenario(context.Background(), pt.Scenario, sp)
		if err != nil {
			t.Fatalf("%s: %v", pt.Strategy, err)
		}
		if res.Yield < 0 || res.Yield > 1 || res.Runs != 300 {
			t.Errorf("%s: malformed result %+v", pt.Strategy, res)
		}
		again, err := EvaluateScenario(context.Background(), pt.Scenario, sp)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, again) {
			t.Errorf("%s: clustered evaluation not deterministic", pt.Strategy)
		}
	}
}

func TestPointModel(t *testing.T) {
	m := Point{Scenario: Scenario{DefectModel: Clustered, ClusterSize: 3}}.Model()
	if !m.Clustered || m.ClusterSize != 3 {
		t.Errorf("Model() = %+v", m)
	}
	if (Point{Scenario: Scenario{DefectModel: Independent}}).Model().Clustered {
		t.Error("independent point maps to clustered model")
	}
}
