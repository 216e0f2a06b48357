// Package sweep evaluates Cartesian grids of yield scenarios — survival
// probability × array size × redundancy strategy — in one pass, reproducing
// the families of yield-vs-defect-probability curves that carry the paper's
// evaluation (Figs. 7, 9, 10) and the parameter-grid studies of the
// companion fault-tolerance work.
//
// A Spec names the axes of the grid; Expand flattens it into a deterministic
// ordered list of Points; Run evaluates the points with bounded concurrency
// while emitting results strictly in point order, so sweep output is
// byte-identical no matter how many workers execute it. Evaluate is the
// direct (uncached) evaluator over the core/yieldsim machinery; the service
// engine wraps the same Point type with its LRU cache and single-flight
// layer so every grid point of an HTTP sweep is individually cacheable.
//
// Four redundancy strategies are understood:
//
//   - "none": no spares at all; yield is the closed form p^n.
//   - "local": a DTMB(s,p) interstitial-redundancy design on a parallelogram
//     footprint repaired by local reconfiguration (the paper's proposal),
//     estimated by the chunk-seeded Monte-Carlo kernel.
//   - "shifted": a square array with boundary spare rows repaired by shifted
//     replacement (the baseline of the paper's Fig. 2), estimated by the
//     same kernel over sqgrid placements.
//   - "hex": the same DTMB(s,p) interstitial designs instantiated over a
//     regular hexagonal chip footprint (the companion fault-tolerance work's
//     hexagonal-array geometry), repaired by the same six-neighbor matcher.
//
// Orthogonally to the strategy axis, every point carries a spatial defect
// model: "independent" (the paper's i.i.d. Bernoulli assumption) or
// "clustered" (center-seeded clusters with geometric radius decay at the
// same expected defect density), so redundancy schemes can be compared under
// realistic spatially correlated manufacturing defects.
package sweep

import (
	"fmt"

	"dmfb/internal/defects"
	"dmfb/internal/layout"
	"dmfb/internal/stats"
)

// Strategy names a redundancy/reconfiguration scheme.
type Strategy string

// The four supported strategies.
const (
	// None is the no-redundancy baseline: any fault discards the chip.
	None Strategy = "none"
	// Local is interstitial redundancy with local reconfiguration on a
	// parallelogram footprint, the paper's proposal. Points carry a DTMB
	// design name.
	Local Strategy = "local"
	// Shifted is boundary spare rows with shifted replacement, the baseline
	// of the paper's Fig. 2. Points carry a spare-row count.
	Shifted Strategy = "shifted"
	// Hex is interstitial redundancy on a regular hexagonal chip footprint,
	// the hexagonal-array DTMB geometry of the companion fault-tolerance
	// work. Points carry a DTMB design name, like Local.
	Hex Strategy = "hex"
)

// valid reports whether s is a known strategy.
func (s Strategy) valid() bool {
	switch s {
	case None, Local, Shifted, Hex:
		return true
	}
	return false
}

// DefectModel names a spatial defect model along the sweep's defect-model
// axis.
type DefectModel string

// The two supported defect models.
const (
	// Independent is the paper's assumption: every cell fails i.i.d. with
	// probability 1−p.
	Independent DefectModel = "independent"
	// Clustered seeds defect clusters with geometric radius decay at the
	// same expected density (1−p)·N; points carry a cluster size.
	Clustered DefectModel = "clustered"
)

// valid reports whether m is a known defect model.
func (m DefectModel) valid() bool {
	return m == Independent || m == Clustered
}

// DefaultClusterSize is the expected cells per cluster when a spec sweeps
// the clustered model without choosing a size.
const DefaultClusterSize = 4.0

// Spec describes a sweep grid. Zero-valued axes take the defaults noted on
// each field; every combination of the applicable axes becomes one Point.
type Spec struct {
	// Strategies lists the redundancy schemes to evaluate; empty means
	// {Local}.
	Strategies []Strategy
	// Designs lists DTMB design names for the Local and Hex strategies
	// (canonical names as produced by layout, e.g. "DTMB(2,6)"); empty means
	// the four canonical Table 1 designs. Ignored by None and Shifted.
	Designs []string
	// NPrimaries lists primary-cell counts n; empty means {100}.
	NPrimaries []int
	// Ps lists explicit survival probabilities. When empty, the range
	// [PMin, PMax] is sampled at PPoints evenly spaced values.
	Ps []float64
	// PMin, PMax, PPoints define the sampled range when Ps is empty; zero
	// values mean the paper's 0.90..1.00 at 11 points.
	PMin, PMax float64
	PPoints    int
	// SpareRows lists boundary spare-row counts for the Shifted strategy;
	// empty means {1}. Ignored by the other strategies.
	SpareRows []int
	// DefectModels lists the spatial defect models to evaluate; empty means
	// {Independent}. The models multiply every strategy's grid.
	DefectModels []DefectModel
	// ClusterSize is the expected faulty cells per cluster for the Clustered
	// model; 0 means DefaultClusterSize. Ignored by Independent points.
	ClusterSize float64
}

// withDefaults fills the documented defaults for empty axes.
func (s Spec) withDefaults() Spec {
	if len(s.Strategies) == 0 {
		s.Strategies = []Strategy{Local}
	}
	if len(s.Designs) == 0 {
		for _, d := range layout.AllDesigns() {
			s.Designs = append(s.Designs, d.Name)
		}
	}
	if len(s.NPrimaries) == 0 {
		s.NPrimaries = []int{100}
	}
	// The range fields default independently, so e.g. a spec setting only
	// PPoints still sweeps the paper's 0.90..1.00 band rather than a
	// degenerate [0,0] range.
	if len(s.Ps) == 0 {
		if s.PMin == 0 && s.PMax == 0 {
			s.PMin, s.PMax = 0.90, 1.00
		}
		if s.PPoints == 0 {
			s.PPoints = 11
		}
	}
	if len(s.SpareRows) == 0 {
		s.SpareRows = []int{1}
	}
	if len(s.DefectModels) == 0 {
		s.DefectModels = []DefectModel{Independent}
	}
	if s.ClusterSize == 0 {
		s.ClusterSize = DefaultClusterSize
	}
	return s
}

// PValues returns the survival probabilities the sweep samples.
func (s Spec) PValues() []float64 {
	s = s.withDefaults()
	if len(s.Ps) > 0 {
		return s.Ps
	}
	if s.PPoints == 1 {
		return []float64{s.PMin}
	}
	return stats.Linspace(s.PMin, s.PMax, s.PPoints)
}

// validate checks the axes of an already-defaulted spec.
func (s Spec) validate() error {
	for _, st := range s.Strategies {
		if !st.valid() {
			return fmt.Errorf("sweep: unknown strategy %q (want none, local, shifted or hex)", st)
		}
	}
	for _, name := range s.Designs {
		if _, err := layout.DesignByName(name); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	for _, n := range s.NPrimaries {
		if n <= 0 {
			return fmt.Errorf("sweep: primary-cell count %d must be positive", n)
		}
	}
	if len(s.Ps) == 0 {
		if s.PPoints < 1 {
			return fmt.Errorf("sweep: p_points %d must be at least 1", s.PPoints)
		}
		if s.PMin > s.PMax {
			return fmt.Errorf("sweep: p range [%v,%v] is inverted", s.PMin, s.PMax)
		}
	}
	for _, p := range s.PValues() {
		if p != p || p < 0 || p > 1 {
			return fmt.Errorf("sweep: survival probability %v outside [0,1]", p)
		}
	}
	for _, r := range s.SpareRows {
		if r < 1 {
			return fmt.Errorf("sweep: spare-row count %d must be at least 1", r)
		}
	}
	for _, m := range s.DefectModels {
		if !m.valid() {
			return fmt.Errorf("sweep: unknown defect model %q (want independent or clustered)", m)
		}
	}
	if err := (defects.Model{Clustered: true, ClusterSize: s.ClusterSize}).Validate(); err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	return nil
}

// NumPoints returns the number of grid points Expand would produce.
func (s Spec) NumPoints() int {
	s = s.withDefaults()
	nps := len(s.NPrimaries) * len(s.PValues())
	total := 0
	for _, st := range s.Strategies {
		switch st {
		case Local, Hex:
			total += len(s.Designs) * nps
		case Shifted:
			total += len(s.SpareRows) * nps
		default:
			total += nps
		}
	}
	return total * len(s.DefectModels)
}

// Scenario is one fully specified yield scenario — a redundancy strategy
// with its strategy-specific axis value, an array size, a survival
// probability, and a spatial defect model. It is the single currency the
// sweep engine, the yieldsim dispatch (EvaluateScenario), the HTTP service,
// and the CLIs exchange: a sweep grid is an ordered list of Scenarios, and a
// single /v2/evaluate request is exactly one.
type Scenario struct {
	// Strategy selects the redundancy/reconfiguration scheme.
	Strategy Strategy
	// Design is the DTMB design name (Local and Hex strategies; "" otherwise).
	Design string
	// NPrimary is the number of working cells n.
	NPrimary int
	// SpareRows is the boundary spare-row count (Shifted only; 0 otherwise).
	SpareRows int
	// P is the cell survival probability.
	P float64
	// DefectModel selects the spatial defect model of the scenario.
	DefectModel DefectModel
	// ClusterSize is the expected faulty cells per cluster (Clustered model
	// only; 0 otherwise).
	ClusterSize float64
}

// Normalize fills the scenario defaults (defect model, cluster size) and
// clears fields the strategy and model do not use, so equal scenarios have
// equal canonical forms regardless of how callers populated the inapplicable
// axes.
func (sc Scenario) Normalize() Scenario {
	if sc.DefectModel == "" {
		sc.DefectModel = Independent
	}
	if sc.DefectModel == Clustered {
		if sc.ClusterSize == 0 {
			sc.ClusterSize = DefaultClusterSize
		}
	} else {
		sc.ClusterSize = 0
	}
	switch sc.Strategy {
	case Local, Hex:
		sc.SpareRows = 0
	case Shifted:
		sc.Design = ""
		if sc.SpareRows == 0 {
			sc.SpareRows = 1
		}
	default:
		sc.Design = ""
		sc.SpareRows = 0
	}
	return sc
}

// Validate checks a single (normalized or raw) scenario: known strategy and
// defect model, the strategy-specific axis present exactly when applicable,
// and the numeric fields in range. Design existence is checked at
// evaluation, where the name is resolved.
func (sc Scenario) Validate() error {
	if !sc.Strategy.valid() {
		return fmt.Errorf("sweep: unknown strategy %q (want none, local, shifted or hex)", sc.Strategy)
	}
	switch sc.Strategy {
	case Local, Hex:
		if sc.Design == "" {
			return fmt.Errorf("sweep: strategy %q requires a design", sc.Strategy)
		}
		if sc.SpareRows != 0 {
			return fmt.Errorf("sweep: spare_rows applies only to the shifted strategy")
		}
	case Shifted:
		if sc.Design != "" {
			return fmt.Errorf("sweep: design applies only to the local and hex strategies")
		}
		if sc.SpareRows < 1 {
			return fmt.Errorf("sweep: spare-row count %d must be at least 1", sc.SpareRows)
		}
	default:
		if sc.Design != "" {
			return fmt.Errorf("sweep: design applies only to the local and hex strategies")
		}
		if sc.SpareRows != 0 {
			return fmt.Errorf("sweep: spare_rows applies only to the shifted strategy")
		}
	}
	if sc.NPrimary <= 0 {
		return fmt.Errorf("sweep: primary-cell count %d must be positive", sc.NPrimary)
	}
	if sc.P != sc.P || sc.P < 0 || sc.P > 1 {
		return fmt.Errorf("sweep: survival probability %v outside [0,1]", sc.P)
	}
	if !sc.DefectModel.valid() {
		return fmt.Errorf("sweep: unknown defect model %q (want independent or clustered)", sc.DefectModel)
	}
	if err := sc.Model().Validate(); err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	if sc.DefectModel != Clustered && sc.ClusterSize != 0 {
		return fmt.Errorf("sweep: cluster_size applies only to the clustered defect model")
	}
	return nil
}

// Model converts the scenario's defect-model axes to the defects package
// type.
func (sc Scenario) Model() defects.Model {
	return defects.Model{Clustered: sc.DefectModel == Clustered, ClusterSize: sc.ClusterSize}
}

// Point is one Scenario at its position in a sweep grid's deterministic
// order.
type Point struct {
	// Index is the point's position in the sweep's deterministic order.
	Index int
	Scenario
}

// Expand validates the spec and flattens it into its ordered point list.
// The order is deterministic: strategies in the given order; within a
// strategy the defect model varies slowest, then the applicable strategy
// axis (design or spare rows), then NPrimary, then P fastest.
func (s Spec) Expand() ([]Point, error) {
	s = s.withDefaults()
	if err := s.validate(); err != nil {
		return nil, err
	}
	ps := s.PValues()
	pts := make([]Point, 0, s.NumPoints())
	add := func(sc Scenario) {
		pts = append(pts, Point{Index: len(pts), Scenario: sc})
	}
	for _, st := range s.Strategies {
		for _, m := range s.DefectModels {
			size := 0.0
			if m == Clustered {
				size = s.ClusterSize
			}
			switch st {
			case Local, Hex:
				for _, d := range s.Designs {
					for _, n := range s.NPrimaries {
						for _, p := range ps {
							add(Scenario{Strategy: st, Design: d, NPrimary: n, P: p, DefectModel: m, ClusterSize: size})
						}
					}
				}
			case Shifted:
				for _, r := range s.SpareRows {
					for _, n := range s.NPrimaries {
						for _, p := range ps {
							add(Scenario{Strategy: Shifted, SpareRows: r, NPrimary: n, P: p, DefectModel: m, ClusterSize: size})
						}
					}
				}
			default:
				for _, n := range s.NPrimaries {
					for _, p := range ps {
						add(Scenario{Strategy: None, NPrimary: n, P: p, DefectModel: m, ClusterSize: size})
					}
				}
			}
		}
	}
	return pts, nil
}
