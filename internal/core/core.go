// Package core ties the paper's primary contribution together: a
// defect-tolerant digital microfluidic biochip with interstitial redundancy
// whose faulty primary cells are repaired by local reconfiguration, plus the
// yield and effective-yield analysis used to choose a redundancy level.
//
// The type Biochip carries the full defect-tolerance lifecycle:
//
//	chip, _ := core.New(layout.DTMB26(), 100)     // design-time: choose DTMB(s,p)
//	chip.InjectBernoulli(seed, 0.95)              // manufacturing: cells fail
//	plan, _ := chip.Reconfigure()                 // test & repair: local reconfiguration
//	if plan.OK { /* chip shippable */ }
//
// Faults come from one of two injection models (InjectBernoulli,
// InjectFixed) or are marked directly (SetFaulty). The design-space entry
// points, AnalyzeYield and RecommendDesign, reproduce the decision procedure
// of paper §6: high redundancy for low cell survival probability, low
// redundancy when cells rarely fail.
package core

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"sort"

	"dmfb/internal/defects"
	"dmfb/internal/layout"
	"dmfb/internal/reconfig"
	"dmfb/internal/telemetry"
	"dmfb/internal/yieldsim"
)

// Biochip is a defect-tolerant microfluidic array with its current fault
// state and reconfiguration plan. It is not safe for concurrent mutation.
type Biochip struct {
	arr    *layout.Array
	faults *defects.FaultSet
	used   []bool
	plan   reconfig.Plan
	hasRun bool
}

// New builds a biochip using the given DTMB design with exactly nPrimary
// primary cells.
func New(design layout.Design, nPrimary int) (*Biochip, error) {
	arr, err := layout.BuildWithPrimaryTarget(design, nPrimary)
	if err != nil {
		return nil, err
	}
	return FromArray(arr), nil
}

// FromArray wraps an existing array (e.g. the case-study chip) as a Biochip.
func FromArray(arr *layout.Array) *Biochip {
	return &Biochip{
		arr:    arr,
		faults: defects.NewFaultSet(arr.NumCells()),
		used:   make([]bool, arr.NumCells()),
	}
}

// Array exposes the underlying defect-tolerant array.
func (b *Biochip) Array() *layout.Array { return b.arr }

// Faults exposes the current fault set.
func (b *Biochip) Faults() *defects.FaultSet { return b.faults }

// Plan returns the most recent reconfiguration plan; ok is false if
// Reconfigure has not run since the last fault injection.
func (b *Biochip) Plan() (reconfig.Plan, bool) { return b.plan, b.hasRun }

// MarkUsed flags primary cells as used by the running bioassays. Used cells
// are the repair targets under ScopeUsed reconfiguration and define the
// no-redundancy baseline yield.
func (b *Biochip) MarkUsed(ids ...layout.CellID) error {
	for _, id := range ids {
		if id < 0 || int(id) >= b.arr.NumCells() {
			return fmt.Errorf("core: cell %d out of range", id)
		}
		if b.arr.Cell(id).Role != layout.Primary {
			return fmt.Errorf("core: cell %d is a spare; only primaries can be assay cells", id)
		}
		b.used[id] = true
	}
	return nil
}

// UsedCells returns the IDs of cells marked used, ascending.
func (b *Biochip) UsedCells() []layout.CellID {
	var out []layout.CellID
	for id, u := range b.used {
		if u {
			out = append(out, layout.CellID(id))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NumUsed returns the number of used cells.
func (b *Biochip) NumUsed() int {
	n := 0
	for _, u := range b.used {
		if u {
			n++
		}
	}
	return n
}

// resetPlan invalidates the cached reconfiguration after fault changes.
func (b *Biochip) resetPlan() {
	b.plan = reconfig.Plan{}
	b.hasRun = false
}

// InjectBernoulli fails every cell independently with probability 1−p.
func (b *Biochip) InjectBernoulli(seed int64, p float64) error {
	if math.IsNaN(p) || p < 0 || p > 1 {
		return fmt.Errorf("core: survival probability %v outside [0,1]", p)
	}
	in := defects.NewInjector(seed)
	b.faults = in.Bernoulli(b.arr, p, b.faults)
	b.resetPlan()
	return nil
}

// InjectFixed fails exactly m distinct cells drawn uniformly from the domain.
func (b *Biochip) InjectFixed(seed int64, m int, domain defects.Domain) error {
	in := defects.NewInjector(seed)
	fs, err := in.FixedCount(b.arr, m, domain, b.faults)
	if err != nil {
		return err
	}
	b.faults = fs
	b.resetPlan()
	return nil
}

// SetFaulty marks specific cells faulty, e.g. fault locations reported by
// testing, instead of simulating them.
func (b *Biochip) SetFaulty(ids ...layout.CellID) error {
	for _, id := range ids {
		if id < 0 || int(id) >= b.arr.NumCells() {
			return fmt.Errorf("core: cell %d out of range", id)
		}
		b.faults.MarkFaulty(id)
	}
	b.resetPlan()
	return nil
}

// Scope selects the reconfiguration repair criterion.
type Scope = reconfig.Scope

// Scope values re-exported for callers of Reconfigure.
const (
	ScopeAll  = reconfig.RepairAll
	ScopeUsed = reconfig.RepairUsed
)

// Reconfigure runs local reconfiguration over the current fault set with
// RepairAll scope: every faulty primary must be replaced by an adjacent
// fault-free spare.
func (b *Biochip) Reconfigure() (reconfig.Plan, error) {
	return b.ReconfigureScoped(ScopeAll)
}

// ReconfigureScoped runs local reconfiguration with the given scope;
// ScopeUsed repairs only the faulty cells marked used.
func (b *Biochip) ReconfigureScoped(scope Scope) (reconfig.Plan, error) {
	opts := reconfig.Options{Scope: scope}
	if scope == ScopeUsed {
		opts.Used = b.used
	}
	plan, err := reconfig.LocalReconfigure(b.arr, b.faults, opts)
	if err != nil {
		return reconfig.Plan{}, err
	}
	if err := reconfig.Verify(b.arr, b.faults, plan); err != nil {
		return reconfig.Plan{}, fmt.Errorf("core: reconfiguration produced invalid plan: %w", err)
	}
	b.plan = plan
	b.hasRun = true
	return plan, nil
}

// Status summarizes the chip state for reports and tools.
type Status struct {
	Design          string
	NumPrimary      int
	NumSpare        int
	NumUsed         int
	RedundancyRatio float64
	FaultyPrimaries int
	FaultySpares    int
	Reconfigured    bool
	ReconfigOK      bool
	Repairs         int
}

// Status captures the current chip state.
func (b *Biochip) Status() Status {
	st := Status{
		Design:          b.arr.Design().Name,
		NumPrimary:      b.arr.NumPrimary(),
		NumSpare:        b.arr.NumSpare(),
		NumUsed:         b.NumUsed(),
		RedundancyRatio: b.arr.RedundancyRatio(),
		FaultyPrimaries: len(b.faults.FaultyPrimaries(b.arr)),
		FaultySpares:    len(b.faults.FaultySpares(b.arr)),
		Reconfigured:    b.hasRun,
	}
	if b.hasRun {
		st.ReconfigOK = b.plan.OK
		st.Repairs = len(b.plan.Assignments)
	}
	return st
}

// String renders the status in one line.
func (s Status) String() string {
	state := "not reconfigured"
	if s.Reconfigured {
		if s.ReconfigOK {
			state = fmt.Sprintf("reconfigured OK (%d repairs)", s.Repairs)
		} else {
			state = "reconfiguration FAILED"
		}
	}
	return fmt.Sprintf("%s: %d primary (%d used) + %d spare, RR %.3f; faults %dP/%dS; %s",
		s.Design, s.NumPrimary, s.NumUsed, s.NumSpare, s.RedundancyRatio,
		s.FaultyPrimaries, s.FaultySpares, state)
}

// YieldAnalysis bundles the yield figures for one design at one p.
type YieldAnalysis struct {
	Design   string
	P        float64
	NPrimary int
	NTotal   int
	// Runs and Successes are the realized Monte-Carlo counts behind Yield.
	// Under precision-targeted sampling Runs is where the stopping rule
	// fired, which may be far below the requested budget.
	Runs           int
	Successes      int
	Yield          float64
	CILo, CIHi     float64
	EffectiveYield float64
	NoRedundancy   float64
}

// SimParams configures the Monte-Carlo simulation behind a yield analysis.
// The zero value means the paper's defaults: 10000 runs, seed 0 and
// GOMAXPROCS workers. Because chunked seeding makes estimates independent of
// Workers, two analyses with equal (Runs, Seed, Epsilon) agree exactly
// regardless of parallelism.
type SimParams struct {
	Runs    int
	Seed    int64
	Workers int
	// Epsilon, when positive, makes the simulation precision-targeted: it
	// stops at the first deterministic chunk boundary where the Wilson 95%
	// half-width reaches Epsilon, with Runs acting as the trial budget. The
	// realized count is reported in YieldAnalysis.Runs. Zero keeps the
	// classic fixed-run behavior bit-for-bit.
	Epsilon float64
	// Metrics, when non-nil, is handed to the built simulator so kernel
	// trial/chunk observations land in the caller's telemetry registry.
	Metrics *telemetry.KernelMetrics
	// Logger, when non-nil, gives the kernel a structured logger for
	// debug-level chunk span events.
	Logger *slog.Logger
}

// MonteCarlo builds the simulator for these parameters. It is exported so
// that subsystems layered above core (sweep evaluation, the service engine)
// construct their kernels through one code path and inherit the same
// defaults and determinism contract.
func (sp SimParams) MonteCarlo() *yieldsim.MonteCarlo {
	mc := yieldsim.NewMonteCarlo(sp.Seed)
	if sp.Runs > 0 {
		mc.Runs = sp.Runs
	}
	mc.Workers = sp.Workers
	mc.Epsilon = sp.Epsilon
	mc.Metrics = sp.Metrics
	mc.Logger = sp.Logger
	return mc
}

// AnalyzeYield estimates yield and effective yield of the chip's design at
// survival probability p by Monte-Carlo with the given run count and seed,
// alongside the no-redundancy baseline for the same primary count.
func (b *Biochip) AnalyzeYield(p float64, runs int, seed int64) (YieldAnalysis, error) {
	return b.AnalyzeYieldContext(context.Background(), p, SimParams{Runs: runs, Seed: seed})
}

// AnalyzeYieldContext is AnalyzeYield with cancellation and full simulation
// parameters.
func (b *Biochip) AnalyzeYieldContext(ctx context.Context, p float64, sp SimParams) (YieldAnalysis, error) {
	mc := sp.MonteCarlo()
	res, err := mc.YieldContext(ctx, b.arr, p)
	if err != nil {
		return YieldAnalysis{}, err
	}
	return YieldAnalysis{
		Design:         b.arr.Design().Name,
		P:              p,
		NPrimary:       b.arr.NumPrimary(),
		NTotal:         b.arr.NumCells(),
		Runs:           res.Runs,
		Successes:      res.Successes,
		Yield:          res.Yield,
		CILo:           res.CILo,
		CIHi:           res.CIHi,
		EffectiveYield: yieldsim.EffectiveYieldCells(res.Yield, b.arr.NumPrimary(), b.arr.NumCells()),
		NoRedundancy:   yieldsim.NoRedundancy(p, b.arr.NumPrimary()),
	}, nil
}

// Recommendation is the outcome of a design-space exploration.
type Recommendation struct {
	Best     layout.Design
	Analyses []YieldAnalysis
}

// RecommendDesign evaluates all canonical DTMB designs at survival
// probability p for nPrimary primaries and picks the one with the highest
// effective yield — the paper's Fig. 10 decision procedure (high redundancy
// pays off at low p; low redundancy wins at high p).
func RecommendDesign(p float64, nPrimary, runs int, seed int64) (Recommendation, error) {
	var rec Recommendation
	bestEY := -1.0
	for _, d := range layout.AllDesigns() {
		chip, err := New(d, nPrimary)
		if err != nil {
			return Recommendation{}, err
		}
		ya, err := chip.AnalyzeYield(p, runs, seed)
		if err != nil {
			return Recommendation{}, err
		}
		rec.Analyses = append(rec.Analyses, ya)
		if ya.EffectiveYield > bestEY {
			bestEY = ya.EffectiveYield
			rec.Best = d
		}
	}
	return rec, nil
}
