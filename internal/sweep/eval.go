package sweep

import (
	"context"
	"fmt"
	"math"

	"dmfb/internal/core"
	"dmfb/internal/layout"
	"dmfb/internal/sqgrid"
	"dmfb/internal/yieldsim"
)

// PointResult is the outcome of evaluating one grid point.
type PointResult struct {
	Point
	// NTotal is the total cell count of the evaluated array (primaries plus
	// spares; equals NPrimary for the no-redundancy strategy).
	NTotal int
	// Runs and Seed record the Monte-Carlo parameters that produced the
	// estimate. Runs is the *realized* trial count — under precision-targeted
	// sampling the stopping boundary, not the requested budget — and 0 for
	// closed-form (no-redundancy) points.
	Runs int
	Seed int64
	// Successes is the raw Monte-Carlo success count behind Yield (0 for
	// closed-form points, where Yield is exact rather than a proportion).
	Successes int
	// Epsilon is the precision target the point was evaluated under (0 for
	// fixed-run evaluation and closed forms).
	Epsilon float64
	// Yield is the estimated (or exact) yield, with its Wilson 95% interval.
	Yield, CILo, CIHi float64
	// EffectiveYield is Y·n/N, the paper's yield-per-area metric.
	EffectiveYield float64
	// NoRedundancy is the p^n baseline at this point's n and p.
	NoRedundancy float64
	// Cached reports that a caching evaluator (the service engine) served
	// the point from its result cache; always false for direct evaluation.
	Cached bool
}

// YieldResult converts the estimate back to a yieldsim.Result for consumers
// of the older sweep-free APIs. Successes is carried through from the kernel
// rather than reconstructed from the proportion, so closed-form and cached
// points (Runs == 0) round-trip faithfully.
func (r PointResult) YieldResult() yieldsim.Result {
	return yieldsim.Result{
		Yield:     r.Yield,
		Runs:      r.Runs,
		Successes: r.Successes,
		CILo:      r.CILo,
		CIHi:      r.CIHi,
	}
}

// EvaluateScenario is the yieldsim dispatch at the heart of every
// evaluation path: it routes one Scenario to its closed form or Monte-Carlo
// kernel and assembles the resulting yield analysis. Local and hex
// scenarios differ only in the footprint of the array they build
// (parallelogram or hexagon); both then run the same local-reconfiguration
// kernel, YieldModelContext, under either defect model. Shifted scenarios
// run the column-walk kernel, ShiftedYieldModelContext. The sweep runner, the service engine (with
// its cache in front), and the v2 evaluate endpoint all funnel through this
// one switch.
func EvaluateScenario(ctx context.Context, sc Scenario, sp core.SimParams) (PointResult, error) {
	// Normalize + validate up front so defaults (defect model, cluster size)
	// apply on every path into the switch. Before this guard a zero
	// ClusterSize reached the None+Clustered closed form below and produced
	// exp(-Inf) = 0 silently.
	sc = sc.Normalize()
	if err := sc.Validate(); err != nil {
		return PointResult{}, fmt.Errorf("invalid scenario: %w", err)
	}
	pt := Point{Scenario: sc}
	switch pt.Strategy {
	case None:
		y := yieldsim.NoRedundancy(pt.P, pt.NPrimary)
		if pt.DefectModel == Clustered {
			// Every cluster marks at least its center faulty, so a chip with
			// no spares survives iff zero clusters strike: the Poisson zero
			// class exp(−λ) at cluster rate λ = (1−p)·n / cluster size.
			y = math.Exp(-(1 - pt.P) * float64(pt.NPrimary) / pt.ClusterSize)
		}
		return PointResult{
			Point:          pt,
			NTotal:         pt.NPrimary,
			Seed:           sp.Seed,
			Yield:          y,
			CILo:           y,
			CIHi:           y,
			EffectiveYield: y,
			NoRedundancy:   y,
		}, nil
	case Local, Hex:
		design, err := layout.DesignByName(pt.Design)
		if err != nil {
			return PointResult{}, fmt.Errorf("sweep: %w", err)
		}
		build := layout.BuildWithPrimaryTarget
		if pt.Strategy == Hex {
			build = layout.BuildHexagonWithPrimaryTarget
		}
		arr, err := build(design, pt.NPrimary)
		if err != nil {
			return PointResult{}, err
		}
		res, err := sp.MonteCarlo().YieldModelContext(ctx, arr, pt.P, pt.Model())
		if err != nil {
			return PointResult{}, err
		}
		return modelPointResult(pt, sp, res, arr.NumPrimary(), arr.NumCells()), nil
	case Shifted:
		pl, err := sqgrid.PlacementWithPrimaryTarget(pt.NPrimary, pt.SpareRows)
		if err != nil {
			return PointResult{}, err
		}
		mc := sp.MonteCarlo()
		res, err := mc.ShiftedYieldModelContext(ctx, pl, pt.P, pt.Model())
		if err != nil {
			return PointResult{}, err
		}
		return modelPointResult(pt, sp, res, pt.NPrimary, pl.Grid.NumCells()), nil
	}
	return PointResult{}, fmt.Errorf("sweep: unknown strategy %q", pt.Strategy)
}

// modelPointResult assembles a Monte-Carlo point result from a kernel
// estimate plus the realized cell counts, attaching the independent p^n
// baseline every strategy is compared against.
func modelPointResult(pt Point, sp core.SimParams, res yieldsim.Result, nPrimary, nTotal int) PointResult {
	return PointResult{
		Point:          pt,
		NTotal:         nTotal,
		Runs:           res.Runs,
		Seed:           sp.Seed,
		Successes:      res.Successes,
		Epsilon:        sp.Epsilon,
		Yield:          res.Yield,
		CILo:           res.CILo,
		CIHi:           res.CIHi,
		EffectiveYield: yieldsim.EffectiveYieldCells(res.Yield, nPrimary, nTotal),
		NoRedundancy:   yieldsim.NoRedundancy(pt.P, pt.NPrimary),
	}
}
