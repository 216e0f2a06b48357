package service

import (
	"context"
	"fmt"
	"math"
	"time"

	"dmfb/internal/core"
	"dmfb/internal/ordered"
	"dmfb/internal/sweep"
)

// SweepPlan is a validated, expanded sweep: its ordered grid points plus the
// resolved simulation parameters. Splitting planning from execution lets the
// HTTP handler reject a bad request with a JSON 400 before committing to a
// streaming response.
type SweepPlan struct {
	points []sweep.Point
	sp     core.SimParams
}

// NumPoints returns the number of grid points the plan will evaluate.
func (p *SweepPlan) NumPoints() int { return len(p.points) }

// SimParams exposes the plan's resolved simulation parameters (run count,
// seed, epsilon). The job store reads them to pin the resolved run count
// into a job's request.
func (p *SweepPlan) SimParams() core.SimParams { return p.sp }

// PlanSweep validates a sweep request — design aliases, axis bounds, grid
// size, and total simulation work — and expands it into its ordered points.
func (e *Engine) PlanSweep(req SweepRequest) (*SweepPlan, error) {
	if req.Runs < 0 || req.Runs > MaxRuns {
		return nil, invalidf("runs must be in [0,%d], got %d", MaxRuns, req.Runs)
	}
	if err := validateEpsilon(req.Epsilon); err != nil {
		return nil, err
	}
	// Bound the p axis before NumPoints/Expand: PValues materializes
	// p_points floats, so a huge count must be rejected before it can
	// allocate, not after.
	if req.PPoints < 0 || req.PPoints > MaxSweepPoints {
		return nil, invalidf("p_points must be in [0,%d], got %d", MaxSweepPoints, req.PPoints)
	}
	if len(req.Ps) > MaxSweepPoints {
		return nil, invalidf("ps has %d entries, cap is %d", len(req.Ps), MaxSweepPoints)
	}
	// Bound the remaining axis lists as well, so NumPoints' product of
	// list lengths cannot overflow.
	for _, axis := range []struct {
		name string
		n    int
	}{
		{"strategies", len(req.Strategies)},
		{"designs", len(req.Designs)},
		{"n_primaries", len(req.NPrimaries)},
		{"spare_rows", len(req.SpareRows)},
		{"defect_models", len(req.DefectModels)},
	} {
		if axis.n > MaxSweepPoints {
			return nil, invalidf("%s has %d entries, cap is %d", axis.name, axis.n, MaxSweepPoints)
		}
	}
	// Duplicate axis entries would expand to duplicate grid points, whose
	// cached flags depend on which concurrent twin wins the single-flight —
	// breaking the documented byte-reproducibility of the stream. Reject
	// them (post-canonicalization, so "DTMB(2,6)" and "dtmb26" collide).
	designs := make([]string, 0, len(req.Designs))
	seenDesign := make(map[string]bool, len(req.Designs))
	for _, name := range req.Designs {
		d, err := resolveDesign(name)
		if err != nil {
			return nil, err
		}
		if seenDesign[d.Name] {
			return nil, invalidf("designs lists %s twice", d.Name)
		}
		seenDesign[d.Name] = true
		designs = append(designs, d.Name)
	}
	seenStrategy := make(map[string]bool, len(req.Strategies))
	for _, s := range req.Strategies {
		if seenStrategy[s] {
			return nil, invalidf("strategies lists %q twice", s)
		}
		seenStrategy[s] = true
	}
	seenN := make(map[int]bool, len(req.NPrimaries))
	for _, n := range req.NPrimaries {
		if n <= 0 || n > MaxNPrimary {
			return nil, invalidf("n_primaries entries must be in [1,%d], got %d", MaxNPrimary, n)
		}
		if seenN[n] {
			return nil, invalidf("n_primaries lists %d twice", n)
		}
		seenN[n] = true
	}
	seenRows := make(map[int]bool, len(req.SpareRows))
	for _, r := range req.SpareRows {
		if r < 1 || r > MaxNPrimary {
			return nil, invalidf("spare_rows entries must be in [1,%d], got %d", MaxNPrimary, r)
		}
		if seenRows[r] {
			return nil, invalidf("spare_rows lists %d twice", r)
		}
		seenRows[r] = true
	}
	seenP := make(map[float64]bool, len(req.Ps))
	for _, p := range req.Ps {
		if seenP[p] {
			return nil, invalidf("ps lists %v twice", p)
		}
		seenP[p] = true
	}
	seenModel := make(map[string]bool, len(req.DefectModels))
	for _, m := range req.DefectModels {
		if seenModel[m] {
			return nil, invalidf("defect_models lists %q twice", m)
		}
		seenModel[m] = true
	}
	if req.ClusterSize != 0 {
		if math.IsNaN(req.ClusterSize) || req.ClusterSize < 1 || req.ClusterSize > MaxClusterSize {
			return nil, invalidf("cluster_size must be in [1,%v], got %v", float64(MaxClusterSize), req.ClusterSize)
		}
	}
	spec := sweep.Spec{
		Designs:     designs,
		NPrimaries:  req.NPrimaries,
		Ps:          req.Ps,
		PMin:        req.PMin,
		PMax:        req.PMax,
		PPoints:     req.PPoints,
		SpareRows:   req.SpareRows,
		ClusterSize: req.ClusterSize,
	}
	for _, s := range req.Strategies {
		spec.Strategies = append(spec.Strategies, sweep.Strategy(s))
	}
	for _, m := range req.DefectModels {
		spec.DefectModels = append(spec.DefectModels, sweep.DefectModel(m))
	}
	if n := spec.NumPoints(); n > MaxSweepPoints {
		return nil, invalidf("sweep has %d grid points, cap is %d", n, MaxSweepPoints)
	}
	pts, err := spec.Expand()
	if err != nil {
		return nil, invalidf("%v", err)
	}
	// Work bounds are checked against the trial budget; a precision target
	// can only stop earlier, so the budget is the admissible worst case.
	sp := e.simParams(req.Runs, req.Seed, req.Epsilon)
	var totalWork int64
	for _, pt := range pts {
		cells, err := scenarioCells(pt.Scenario)
		if err != nil {
			return nil, invalidf("%v", err)
		}
		if cells == 0 {
			continue // closed-form point, no simulation
		}
		if err := validateWork(sp.Runs, cells); err != nil {
			return nil, err
		}
		totalWork += int64(sp.Runs) * int64(cells)
	}
	if totalWork > MaxSweepWork {
		return nil, invalidf("sweep total work %d (runs × cells summed over the grid) exceeds cap %d", totalWork, MaxSweepWork)
	}
	return &SweepPlan{points: pts, sp: sp}, nil
}

// RunSweep evaluates the plan's points with the engine's bounded concurrency
// and emits their records strictly in point order, in contiguous runs. Every
// Monte-Carlo point passes through the same cache, single-flight, and
// admission layers as /v1/yield — a local-strategy sweep point and an
// equivalent /v1/yield request share one cache entry.
func (e *Engine) RunSweep(ctx context.Context, plan *SweepPlan, emit func([]SweepRecord) error) error {
	return e.RunSweepRange(ctx, plan, 0, plan.NumPoints(), emit)
}

// RunSweepRange evaluates the contiguous grid slice [start, end) of the
// plan on ordered.Run, with up to MaxConcurrent points at once, and emits
// the records strictly in point order with their global grid indices (a
// shard's records are the exact subsequence of the full sweep's stream).
// Because emission order is fixed and the kernel is chunk-seeded, the
// records are byte-identical whatever the concurrency or scheduling.
//
// emit takes a contiguous run of records: every record committed while the
// previous run was being emitted, so a slow emit (a durable append, a
// network flush) is paid once per run, not once per record. The run is
// reused after emit returns. An emit error, an evaluation error at the
// lowest unemitted point, or ctx's cancellation stops the sweep; the
// records before the failing point are emitted first. RunSweepRange
// returns only after every evaluation has returned.
//
// Shard workers and resumed jobs run through here; because every point
// still flows through evalScenario, the cache, single-flight, and admission
// layers apply identically to local, resumed, and distributed evaluation.
// Each successful point is timed into dmfb_sweep_point_duration_seconds.
func (e *Engine) RunSweepRange(ctx context.Context, plan *SweepPlan, start, end int, emit func([]SweepRecord) error) error {
	if start < 0 || end > len(plan.points) || start > end {
		return fmt.Errorf("service: sweep range [%d,%d) outside grid of %d points", start, end, len(plan.points))
	}
	pts, sp := plan.points[start:end], plan.sp
	eval := func(ctx context.Context, i int) (SweepRecord, error) {
		pt, began := pts[i], time.Now()
		res, err := e.evalScenario(ctx, pt.Scenario, sp)
		if err != nil {
			return SweepRecord{}, err
		}
		e.metrics.sweepPoints.With(string(pt.Strategy), string(pt.DefectModel)).Observe(time.Since(began).Seconds())
		return SweepRecord{Index: pt.Index, ScenarioRecord: scenarioRecord(res)}, nil
	}
	var run []SweepRecord
	return ordered.Run(ctx, len(pts), e.cfg.MaxConcurrent,
		func() (func(context.Context, int) (SweepRecord, error), error) { return eval, nil },
		func(_ int, rec SweepRecord) (bool, error) { run = append(run, rec); return false, nil },
		func() error { err := emit(run); run = run[:0]; return err })
}
