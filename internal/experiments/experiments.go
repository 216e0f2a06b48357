// Package experiments contains one driver per table and figure of the
// paper's evaluation, each returning printable rows (stats.Table) plus the
// underlying numbers. The cmd/dtmb-experiments tool, the repository
// benchmarks, and EXPERIMENTS.md all consume these drivers, so the recorded
// results are regenerated from a single code path.
package experiments

import (
	"context"
	"fmt"

	"dmfb/internal/chip"
	"dmfb/internal/core"
	"dmfb/internal/defects"
	"dmfb/internal/layout"
	"dmfb/internal/reconfig"
	"dmfb/internal/sqgrid"
	"dmfb/internal/stats"
	"dmfb/internal/sweep"
	"dmfb/internal/yieldsim"
)

// Config bundles the knobs shared by every experiment.
type Config struct {
	// Runs is the Monte-Carlo run count per point (paper: 10000).
	Runs int
	// Seed fixes all pseudo-randomness.
	Seed int64
	// Workers bounds Monte-Carlo parallelism (0 = GOMAXPROCS).
	Workers int
}

// Default returns the paper's configuration: 10000 runs.
func Default() Config { return Config{Runs: 10000, Seed: 20050307} }

// Quick returns a reduced configuration for tests and smoke runs.
func Quick() Config { return Config{Runs: 800, Seed: 20050307} }

func (c Config) monteCarlo() *yieldsim.MonteCarlo {
	mc := yieldsim.NewMonteCarlo(c.Seed)
	if c.Runs > 0 {
		mc.Runs = c.Runs
	}
	mc.Workers = c.Workers
	return mc
}

// simParams converts the experiment knobs to core simulation parameters, so
// sweep-driven experiments and the ad-hoc Monte-Carlo drivers above share
// one determinism contract.
func (c Config) simParams() core.SimParams {
	return core.SimParams{Runs: c.Runs, Seed: c.Seed, Workers: c.Workers}
}

// runSweep expands and evaluates a sweep grid in point order (each point
// already parallelizes across Workers).
func runSweep(spec sweep.Spec, sp core.SimParams) ([]sweep.PointResult, error) {
	pts, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	results := make([]sweep.PointResult, len(pts))
	for i, pt := range pts {
		r, err := sweep.EvaluateScenario(context.Background(), pt.Scenario, sp)
		if err != nil {
			return nil, err
		}
		r.Index = pt.Index
		results[i] = r
	}
	return results, nil
}

// fmtF formats a float at 4 decimals for table cells.
func fmtF(v float64) string { return fmt.Sprintf("%.4f", v) }

// Table1 reproduces the paper's Table 1: redundancy ratios of the four
// defect-tolerant designs, both asymptotic (s/p) and realized on a finite
// array of 100 primaries.
func Table1() stats.Table {
	tb := stats.Table{
		Title:   "Table 1: Redundancy ratios for the defect-tolerant architectures",
		Columns: []string{"Design", "RR (s/p)", "RR (n=100 array)"},
	}
	for _, d := range layout.AllDesigns() {
		arr, err := layout.BuildWithPrimaryTarget(d, 100)
		finite := "-"
		if err == nil {
			finite = fmtF(arr.RedundancyRatio())
		}
		tb.AddRow(d.Name, fmtF(d.RR()), finite)
	}
	return tb
}

// Figure2Row is one scenario of the shifted-replacement comparison.
type Figure2Row struct {
	Scenario              string
	ShiftedCells          int
	ShiftedModules        int
	InterstitialCells     int
	InterstitialModules   int
	FaultFreeModulesMoved int
}

// Figure2 reproduces the argument of the paper's Fig. 2: on a spare-row
// array, a fault near the spare row relocates one module, but a fault far
// from it cascades through fault-free modules; interstitial redundancy
// always remaps exactly one cell.
func Figure2() ([]Figure2Row, stats.Table, error) {
	p := sqgrid.Figure2Placement()
	scenarios := []struct {
		name  string
		fault sqgrid.Coord
	}{
		{"fault in Module 1 (next to spare row)", sqgrid.Coord{X: 3, Y: 6}},
		{"fault in Module 2 (middle)", sqgrid.Coord{X: 3, Y: 3}},
		{"fault in Module 3 (far from spare row)", sqgrid.Coord{X: 3, Y: 1}},
	}
	tb := stats.Table{
		Title: "Figure 2: shifted replacement vs interstitial local reconfiguration",
		Columns: []string{"Scenario", "Shifted cells", "Shifted modules",
			"Interstitial cells", "Interstitial modules"},
	}
	var rows []Figure2Row
	for _, sc := range scenarios {
		cmp, results, err := reconfig.CompareWithInterstitial(p, []sqgrid.Coord{sc.fault})
		if err != nil {
			return nil, tb, err
		}
		if !cmp.ShiftedOK {
			return nil, tb, fmt.Errorf("experiments: scenario %q failed: %s", sc.name, results[0].Reason)
		}
		row := Figure2Row{
			Scenario:              sc.name,
			ShiftedCells:          cmp.ShiftedCellsRemapped,
			ShiftedModules:        cmp.ShiftedModulesTouched,
			InterstitialCells:     cmp.InterstitialCellsRemapped,
			InterstitialModules:   cmp.InterstitialModules,
			FaultFreeModulesMoved: cmp.ShiftedModulesTouched - 1,
		}
		rows = append(rows, row)
		tb.AddRow(sc.name, fmt.Sprint(row.ShiftedCells), fmt.Sprint(row.ShiftedModules),
			fmt.Sprint(row.InterstitialCells), fmt.Sprint(row.InterstitialModules))
	}
	return rows, tb, nil
}

// Figure7 reproduces the paper's Fig. 7: the analytical yield of DTMB(1,6)
// versus cell survival probability p for several array sizes n, against the
// no-redundancy baseline.
func Figure7(ns []int, ps []float64) ([]stats.Series, stats.Table) {
	if len(ns) == 0 {
		ns = []int{60, 120, 240}
	}
	if len(ps) == 0 {
		ps = stats.Linspace(0.90, 1.00, 11)
	}
	var series []stats.Series
	tb := stats.Table{
		Title:   "Figure 7: analytical yield of DTMB(1,6) vs no redundancy",
		Columns: []string{"p"},
	}
	for _, n := range ns {
		tb.Columns = append(tb.Columns, fmt.Sprintf("DTMB(1,6) n=%d", n))
		tb.Columns = append(tb.Columns, fmt.Sprintf("no-red n=%d", n))
	}
	for _, n := range ns {
		s := stats.Series{Name: fmt.Sprintf("DTMB(1,6) n=%d", n)}
		b := stats.Series{Name: fmt.Sprintf("no-redundancy n=%d", n)}
		for _, p := range ps {
			s.Append(p, yieldsim.ClusterYieldDTMB16(p, n))
			b.Append(p, yieldsim.NoRedundancy(p, n))
		}
		series = append(series, s, b)
	}
	for i, p := range ps {
		row := []string{fmtF(p)}
		for j := 0; j < len(series); j += 2 {
			row = append(row, fmtF(series[j].Y[i]), fmtF(series[j+1].Y[i]))
		}
		tb.AddRow(row...)
	}
	return series, tb
}

// Figure8 demonstrates the bipartite-matching reconfiguration model on a
// small deterministic instance: the redesigned case-study chip with a fixed
// fault pattern, reporting the faulty primaries, candidate spares, and the
// matching found.
func Figure8(seed int64) (reconfig.Plan, stats.Table, error) {
	c, err := chip.NewRedesignedChip()
	if err != nil {
		return reconfig.Plan{}, stats.Table{}, err
	}
	if err := c.InjectFixed(seed, 8, defects.AllCells); err != nil {
		return reconfig.Plan{}, stats.Table{}, err
	}
	plan, err := c.Reconfigure()
	if err != nil {
		return reconfig.Plan{}, stats.Table{}, err
	}
	tb := stats.Table{
		Title:   "Figure 8: maximal bipartite matching between faulty primaries and adjacent spares",
		Columns: []string{"Faulty primary", "Assigned spare"},
	}
	arr := c.Array()
	for _, a := range plan.Assignments {
		tb.AddRow(arr.Cell(a.Faulty).Pos.String(), arr.Cell(a.Spare).Pos.String())
	}
	for _, u := range plan.Unmatched {
		tb.AddRow(arr.Cell(u).Pos.String(), "UNMATCHED")
	}
	return plan, tb, nil
}

// Figure9Point is one Monte-Carlo yield estimate of Fig. 9.
type Figure9Point struct {
	Design string
	N      int
	P      float64
	Result yieldsim.Result
}

// Figure9 reproduces the paper's Fig. 9: Monte-Carlo yield of DTMB(2,6),
// DTMB(3,6) and DTMB(4,4) versus p for several primary-cell counts n. The
// grid is evaluated by the sweep engine, so the driver and the /v1/sweep
// endpoint produce identical numbers for identical parameters.
func Figure9(cfg Config, ns []int, ps []float64) ([]Figure9Point, stats.Table, error) {
	if len(ns) == 0 {
		ns = []int{60, 120, 240}
	}
	if len(ps) == 0 {
		ps = stats.Linspace(0.90, 1.00, 11)
	}
	tb := stats.Table{
		Title:   fmt.Sprintf("Figure 9: Monte-Carlo yield (%d runs per point)", cfg.Runs),
		Columns: []string{"Design", "n", "p", "yield", "ci-lo", "ci-hi"},
	}
	spec := sweep.Spec{
		Strategies: []sweep.Strategy{sweep.Local},
		Designs:    []string{layout.DTMB26().Name, layout.DTMB36().Name, layout.DTMB44().Name},
		NPrimaries: ns,
		Ps:         ps,
	}
	results, err := runSweep(spec, cfg.simParams())
	if err != nil {
		return nil, tb, err
	}
	points := make([]Figure9Point, 0, len(results))
	for _, r := range results {
		points = append(points, Figure9Point{Design: r.Design, N: r.NPrimary, P: r.P, Result: r.YieldResult()})
		tb.AddRow(r.Design, fmt.Sprint(r.NPrimary), fmtF(r.P), fmtF(r.Yield), fmtF(r.CILo), fmtF(r.CIHi))
	}
	return points, tb, nil
}

// Figure10Point is one effective-yield estimate of Fig. 10.
type Figure10Point struct {
	Design         string
	P              float64
	Yield          float64
	EffectiveYield float64
}

// Figure10 reproduces the paper's Fig. 10: effective yield EY = Y/(1+RR)
// versus p for all four redundancy levels at n = 100 primary cells.
// DTMB(4,4) dominates at low p; DTMB(1,6)/DTMB(2,6) win at high p. The grid
// is evaluated by the sweep engine; the design-major result order is folded
// back into the p-major rows of the paper's figure.
func Figure10(cfg Config, ps []float64) ([]Figure10Point, stats.Table, error) {
	if len(ps) == 0 {
		ps = stats.Linspace(0.80, 1.00, 21)
	}
	const n = 100
	tb := stats.Table{
		Title:   fmt.Sprintf("Figure 10: effective yield, n=%d (%d runs per point)", n, cfg.Runs),
		Columns: []string{"p"},
	}
	designs := layout.AllDesigns()
	names := make([]string, len(designs))
	for i, d := range designs {
		names[i] = d.Name
		tb.Columns = append(tb.Columns, fmt.Sprintf("EY %s", d.Name))
	}
	spec := sweep.Spec{
		Strategies: []sweep.Strategy{sweep.Local},
		Designs:    names,
		NPrimaries: []int{n},
		Ps:         ps,
	}
	results, err := runSweep(spec, cfg.simParams())
	if err != nil {
		return nil, tb, err
	}
	// Expansion order is design-major, p-minor: result index = di*len(ps)+pi.
	at := func(di, pi int) sweep.PointResult { return results[di*len(ps)+pi] }
	var points []Figure10Point
	for pi, p := range ps {
		row := []string{fmtF(p)}
		for di, d := range designs {
			r := at(di, pi)
			points = append(points, Figure10Point{Design: d.Name, P: p, Yield: r.Yield, EffectiveYield: r.EffectiveYield})
			row = append(row, fmtF(r.EffectiveYield))
		}
		tb.AddRow(row...)
	}
	return points, tb, nil
}

// CaseStudyBaseline reports the no-redundancy yield of the original
// 108-cell chip across p, including the paper's 0.3378 figure at p = 0.99.
func CaseStudyBaseline(ps []float64) stats.Table {
	if len(ps) == 0 {
		ps = []float64{0.95, 0.97, 0.99, 0.995, 0.999}
	}
	tb := stats.Table{
		Title:   "Case study: yield of the original chip (108 assay cells, no spares)",
		Columns: []string{"p", "yield"},
	}
	for _, p := range ps {
		tb.AddRow(fmtF(p), fmtF(chip.OriginalYield(p)))
	}
	return tb
}

// Figure13Policy names one fault-domain / repair-scope combination.
type Figure13Policy struct {
	Name   string
	Domain defects.Domain
	Scope  reconfig.Scope
}

// Figure13Policies returns the four policy combinations evaluated for the
// case-study experiment. The paper's description ("the cells in the
// microfluidic array, including both primary and spare cells, are randomly
// chosen to fail" + matching over all faulty primaries) corresponds to
// AllCells/RepairAll; the other combinations are ablations.
func Figure13Policies() []Figure13Policy {
	return []Figure13Policy{
		{"all-cells/repair-all", defects.AllCells, reconfig.RepairAll},
		{"all-cells/repair-used", defects.AllCells, reconfig.RepairUsed},
		{"primaries-only/repair-all", defects.PrimariesOnly, reconfig.RepairAll},
		{"primaries-only/repair-used", defects.PrimariesOnly, reconfig.RepairUsed},
	}
}

// Figure13Point is one (m, yield) estimate.
type Figure13Point struct {
	Policy string
	M      int
	Result yieldsim.Result
}

// Figure13 reproduces the paper's Fig. 13: yield of the DTMB(2,6)-based
// redesign in the presence of exactly m cell failures, for each policy.
func Figure13(cfg Config, ms []int, policies []Figure13Policy) ([]Figure13Point, stats.Table, error) {
	if len(ms) == 0 {
		ms = []int{0, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60}
	}
	if len(policies) == 0 {
		policies = Figure13Policies()
	}
	c, err := chip.NewRedesignedChip()
	if err != nil {
		return nil, stats.Table{}, err
	}
	arr := c.Array()
	used := make([]bool, arr.NumCells())
	for _, id := range c.UsedCells() {
		used[id] = true
	}
	tb := stats.Table{
		Title:   fmt.Sprintf("Figure 13: case-study yield vs number of faults (%d runs per point)", cfg.Runs),
		Columns: []string{"m"},
	}
	for _, pol := range policies {
		tb.Columns = append(tb.Columns, pol.Name)
	}
	var points []Figure13Point
	for _, m := range ms {
		row := []string{fmt.Sprint(m)}
		for _, pol := range policies {
			mc := cfg.monteCarlo()
			mc.Scope = pol.Scope
			if pol.Scope == reconfig.RepairUsed {
				mc.Used = used
			}
			res, err := mc.YieldFixedFaults(arr, m, pol.Domain)
			if err != nil {
				return nil, tb, err
			}
			points = append(points, Figure13Point{Policy: pol.Name, M: m, Result: res})
			row = append(row, fmtF(res.Yield))
		}
		tb.AddRow(row...)
	}
	return points, tb, nil
}

// MaxFaultsAtYield returns the largest m among the sampled points of a
// policy whose yield stays at or above the threshold (paper: m = 35 at
// yield 0.90).
func MaxFaultsAtYield(points []Figure13Point, policy string, threshold float64) int {
	best := -1
	for _, pt := range points {
		if pt.Policy != policy {
			continue
		}
		if pt.Result.Yield >= threshold && pt.M > best {
			best = pt.M
		}
	}
	return best
}

// BoundaryAblation compares the cluster-complete DTMB(1,6) geometry (the
// analytical model's assumption) against the parallelogram build at equal n,
// quantifying boundary losses.
func BoundaryAblation(cfg Config, ps []float64) (stats.Table, error) {
	if len(ps) == 0 {
		ps = []float64{0.95, 0.97, 0.99}
	}
	const clusters = 20 // n = 120
	ideal, err := layout.BuildClusterCompleteDTMB16(clusters)
	if err != nil {
		return stats.Table{}, err
	}
	para, err := layout.BuildWithPrimaryTarget(layout.DTMB16(), ideal.NumPrimary())
	if err != nil {
		return stats.Table{}, err
	}
	tb := stats.Table{
		Title:   fmt.Sprintf("Ablation: DTMB(1,6) boundary effects, n=%d (%d runs)", ideal.NumPrimary(), cfg.Runs),
		Columns: []string{"p", "analytic", "cluster-complete MC", "parallelogram MC"},
	}
	for _, p := range ps {
		mc := cfg.monteCarlo()
		ri, err := mc.Yield(ideal, p)
		if err != nil {
			return tb, err
		}
		rp, err := mc.Yield(para, p)
		if err != nil {
			return tb, err
		}
		tb.AddRow(fmtF(p), fmtF(yieldsim.ClusterYieldDTMB16(p, ideal.NumPrimary())),
			fmtF(ri.Yield), fmtF(rp.Yield))
	}
	return tb, nil
}

// VariantAblation compares the two DTMB(2,6) geometries (Fig. 4a vs 4b):
// same redundancy ratio, nearly identical yield.
func VariantAblation(cfg Config, ps []float64) (stats.Table, error) {
	if len(ps) == 0 {
		ps = []float64{0.90, 0.95, 0.99}
	}
	const n = 100
	a, err := layout.BuildWithPrimaryTarget(layout.DTMB26(), n)
	if err != nil {
		return stats.Table{}, err
	}
	b, err := layout.BuildWithPrimaryTarget(layout.DTMB26Alt(), n)
	if err != nil {
		return stats.Table{}, err
	}
	tb := stats.Table{
		Title:   fmt.Sprintf("Ablation: DTMB(2,6) variant A (Fig. 4a) vs B (Fig. 4b), n=%d (%d runs)", n, cfg.Runs),
		Columns: []string{"p", "variant A yield", "variant B yield"},
	}
	for _, p := range ps {
		mc := cfg.monteCarlo()
		ra, err := mc.Yield(a, p)
		if err != nil {
			return tb, err
		}
		rb, err := mc.Yield(b, p)
		if err != nil {
			return tb, err
		}
		tb.AddRow(fmtF(p), fmtF(ra.Yield), fmtF(rb.Yield))
	}
	return tb, nil
}
