package service

import (
	"context"
	"math"
	"strings"

	"dmfb/internal/core"
	"dmfb/internal/sqgrid"
	"dmfb/internal/sweep"
)

// ScenarioRequest is the wire form of one sweep.Scenario plus its simulation
// parameters — the single request shape of the v2 surface. POST /v2/evaluate
// takes exactly one; a sweep job is a grid of them. Strategy-specific fields
// must be present exactly when applicable: design for local/hex, spare_rows
// for shifted, cluster_size for the clustered defect model.
type ScenarioRequest struct {
	// Strategy is "none", "local" (default), "shifted" or "hex".
	Strategy string `json:"strategy,omitempty"`
	// Design names a DTMB(s, p) pattern for the local and hex strategies,
	// e.g. "DTMB(2,6)" or the compact alias "dtmb26".
	Design string `json:"design,omitempty"`
	// NPrimary is the number of primary cells of the array.
	NPrimary int `json:"n_primary"`
	// SpareRows is the boundary spare-row count of the shifted strategy;
	// 0 means 1.
	SpareRows int `json:"spare_rows,omitempty"`
	// P is the cell survival probability in [0, 1].
	P float64 `json:"p"`
	// DefectModel is "independent" (default) or "clustered".
	DefectModel string `json:"defect_model,omitempty"`
	// ClusterSize is the expected faulty cells per cluster for the clustered
	// model; 0 means the default (4).
	ClusterSize float64 `json:"cluster_size,omitempty"`
	// Runs is the Monte-Carlo run count; 0 means the engine default.
	// Closed-form (none-strategy) scenarios ignore it.
	Runs int `json:"runs,omitempty"`
	// Seed makes the estimate reproducible; identical requests hit the cache.
	Seed int64 `json:"seed,omitempty"`
	// Epsilon, when positive, makes the estimate precision-targeted: the
	// kernel stops at the first deterministic chunk boundary where the
	// Wilson 95% half-width reaches epsilon, with runs as the trial budget.
	// The response's runs field reports the realized count. Must be in
	// [0, 1); 0 keeps the classic fixed-run behavior. The realized count and
	// estimate are deterministic in (seed, epsilon, runs), so adaptive
	// results cache exactly like fixed-run ones.
	Epsilon float64 `json:"epsilon,omitempty"`
}

// resolve validates the request against the service resource bounds and
// canonicalizes it into a sweep.Scenario (design aliases resolved, defaults
// filled, inapplicable axes rejected rather than ignored).
func (r *ScenarioRequest) resolve() (sweep.Scenario, error) {
	sc := sweep.Scenario{
		Strategy:    sweep.Strategy(strings.ToLower(strings.TrimSpace(r.Strategy))),
		Design:      strings.TrimSpace(r.Design),
		NPrimary:    r.NPrimary,
		SpareRows:   r.SpareRows,
		P:           r.P,
		DefectModel: sweep.DefectModel(strings.ToLower(strings.TrimSpace(r.DefectModel))),
		ClusterSize: r.ClusterSize,
	}
	if sc.Strategy == "" {
		sc.Strategy = sweep.Local
	}
	if sc.DefectModel == "" {
		sc.DefectModel = sweep.Independent
	}
	if r.NPrimary <= 0 || r.NPrimary > MaxNPrimary {
		return sweep.Scenario{}, invalidf("n_primary must be in [1,%d], got %d", MaxNPrimary, r.NPrimary)
	}
	if math.IsNaN(r.P) || r.P < 0 || r.P > 1 {
		return sweep.Scenario{}, invalidf("p %v outside [0,1]", r.P)
	}
	if r.Runs < 0 || r.Runs > MaxRuns {
		return sweep.Scenario{}, invalidf("runs must be in [0,%d], got %d", MaxRuns, r.Runs)
	}
	if err := validateEpsilon(r.Epsilon); err != nil {
		return sweep.Scenario{}, err
	}
	if r.SpareRows < 0 || r.SpareRows > MaxNPrimary {
		return sweep.Scenario{}, invalidf("spare_rows must be in [0,%d], got %d", MaxNPrimary, r.SpareRows)
	}
	if r.ClusterSize != 0 {
		if math.IsNaN(r.ClusterSize) || r.ClusterSize < 1 || r.ClusterSize > MaxClusterSize {
			return sweep.Scenario{}, invalidf("cluster_size must be in [1,%v], got %v", float64(MaxClusterSize), r.ClusterSize)
		}
		if sc.DefectModel != sweep.Clustered {
			return sweep.Scenario{}, invalidf("cluster_size applies only to the clustered defect model")
		}
	}
	switch sc.Strategy {
	case sweep.Local, sweep.Hex:
		if sc.Design == "" {
			return sweep.Scenario{}, invalidf("strategy %q requires a design", sc.Strategy)
		}
		d, err := resolveDesign(sc.Design)
		if err != nil {
			return sweep.Scenario{}, err
		}
		sc.Design = d.Name
	default:
		if sc.Design != "" {
			return sweep.Scenario{}, invalidf("design applies only to the local and hex strategies")
		}
	}
	if sc.SpareRows != 0 && sc.Strategy != sweep.Shifted {
		return sweep.Scenario{}, invalidf("spare_rows applies only to the shifted strategy")
	}
	sc = sc.Normalize()
	if err := sc.Validate(); err != nil {
		return sweep.Scenario{}, invalidf("%v", err)
	}
	return sc, nil
}

// ScenarioRecord is the wire form of one evaluated scenario: its coordinates
// followed by its yield analysis. It is both the /v2/evaluate response and
// — behind a grid index — every NDJSON line of a sweep or job stream.
type ScenarioRecord struct {
	Strategy string `json:"strategy"`
	// Design is set for local- and hex-strategy scenarios, e.g. "DTMB(2,6)".
	Design   string `json:"design,omitempty"`
	NPrimary int    `json:"n_primary"`
	// SpareRows is set for shifted-strategy scenarios.
	SpareRows int `json:"spare_rows,omitempty"`
	// DefectModel is the scenario's spatial defect model ("independent" or
	// "clustered").
	DefectModel string `json:"defect_model"`
	// ClusterSize is set for clustered-model scenarios.
	ClusterSize float64 `json:"cluster_size,omitempty"`
	NTotal      int     `json:"n_total"`
	P           float64 `json:"p"`
	// Runs is the realized Monte-Carlo trial count — under a precision
	// target the stopping boundary, not the requested budget — and 0 for
	// closed-form (none-strategy) scenarios.
	Runs int   `json:"runs"`
	Seed int64 `json:"seed"`
	// Successes is the raw Monte-Carlo success count behind the yield
	// proportion; omitted for closed-form scenarios.
	Successes int `json:"successes,omitempty"`
	// Epsilon echoes the precision target the scenario was evaluated under;
	// omitted for fixed-run evaluation.
	Epsilon        float64 `json:"epsilon,omitempty"`
	Yield          float64 `json:"yield"`
	CILo           float64 `json:"ci_lo"`
	CIHi           float64 `json:"ci_hi"`
	EffectiveYield float64 `json:"effective_yield"`
	NoRedundancy   float64 `json:"no_redundancy"`
	Cached         bool    `json:"cached,omitempty"`
}

// scenarioRecord converts an evaluated point to the wire type.
func scenarioRecord(r sweep.PointResult) ScenarioRecord {
	return ScenarioRecord{
		Strategy:       string(r.Strategy),
		Design:         r.Design,
		NPrimary:       r.NPrimary,
		SpareRows:      r.SpareRows,
		DefectModel:    string(r.DefectModel),
		ClusterSize:    r.ClusterSize,
		NTotal:         r.NTotal,
		P:              r.P,
		Runs:           r.Runs,
		Seed:           r.Seed,
		Successes:      r.Successes,
		Epsilon:        r.Epsilon,
		Yield:          r.Yield,
		CILo:           r.CILo,
		CIHi:           r.CIHi,
		EffectiveYield: r.EffectiveYield,
		NoRedundancy:   r.NoRedundancy,
		Cached:         r.Cached,
	}
}

// EvaluateScenario serves POST /v2/evaluate: validate and canonicalize one
// scenario, bound its work, and evaluate it through the shared cache,
// single-flight, and admission layers. It is the single-scenario face of the
// same core the v1 endpoints and the job runner adapt over.
func (e *Engine) EvaluateScenario(ctx context.Context, req ScenarioRequest) (ScenarioRecord, error) {
	sc, err := req.resolve()
	if err != nil {
		return ScenarioRecord{}, err
	}
	sp := e.simParams(req.Runs, req.Seed, req.Epsilon)
	cells, err := scenarioCells(sc)
	if err != nil {
		return ScenarioRecord{}, invalidf("%v", err)
	}
	if cells > 0 {
		if err := validateWork(sp.Runs, cells); err != nil {
			return ScenarioRecord{}, err
		}
	}
	res, err := e.evalScenario(ctx, sc, sp)
	if err != nil {
		return ScenarioRecord{}, err
	}
	return scenarioRecord(res), nil
}

// scenarioCells returns the simulated cell count of a scenario — the factor
// that multiplies the run count into its work bound — or 0 for closed-form
// scenarios that never simulate.
func scenarioCells(sc sweep.Scenario) (int, error) {
	switch sc.Strategy {
	case sweep.Local, sweep.Hex:
		return sc.NPrimary, nil
	case sweep.Shifted:
		pl, err := sqgrid.PlacementWithPrimaryTarget(sc.NPrimary, sc.SpareRows)
		if err != nil {
			return 0, err
		}
		return pl.Grid.NumCells(), nil
	}
	return 0, nil
}

// evalScenario is the engine's scenario core: it evaluates one canonical
// scenario via the sweep dispatch under the cache, single-flight, and
// admission layers. The v1 yield and recommend endpoints, the v1 sweep
// stream, the v2 evaluate endpoint, and sweep jobs are all adapters over
// this one entry point. Results are index-free; sweep callers stamp the
// grid index.
func (e *Engine) evalScenario(ctx context.Context, sc sweep.Scenario, sp core.SimParams) (sweep.PointResult, error) {
	if sc.Strategy == sweep.None {
		// Closed form: too cheap to cache or bound.
		return sweep.EvaluateScenario(ctx, sc, sp)
	}
	return e.cachedCompute(ctx, scenarioKey(sc, sp), func() (sweep.PointResult, error) {
		return sweep.EvaluateScenario(ctx, sc, sp)
	})
}

// scenarioKey builds the cache key of a Monte-Carlo scenario, the one place
// a cache key is made.
func scenarioKey(sc sweep.Scenario, sp core.SimParams) cacheKey {
	return cacheKey{sc: sc.Normalize(), runs: sp.Runs, seed: sp.Seed, epsilon: sp.Epsilon}
}
