package core

import (
	"math"
	"strings"
	"testing"

	"dmfb/internal/defects"
	"dmfb/internal/layout"
	"dmfb/internal/yieldsim"
)

func newChip(t testing.TB, d layout.Design, n int) *Biochip {
	t.Helper()
	chip, err := New(d, n)
	if err != nil {
		t.Fatal(err)
	}
	return chip
}

func TestNewBuildsRequestedSize(t *testing.T) {
	chip := newChip(t, layout.DTMB26(), 100)
	if chip.Array().NumPrimary() != 100 {
		t.Errorf("NumPrimary = %d", chip.Array().NumPrimary())
	}
	st := chip.Status()
	if st.Design != "DTMB(2,6)" || st.FaultyPrimaries != 0 || st.Reconfigured {
		t.Errorf("fresh status %+v", st)
	}
}

func TestLifecycleInjectReconfigure(t *testing.T) {
	chip := newChip(t, layout.DTMB26(), 100)
	if err := chip.InjectBernoulli(42, 0.97); err != nil {
		t.Fatal(err)
	}
	if _, ok := chip.Plan(); ok {
		t.Error("plan should be invalidated by injection")
	}
	plan, err := chip.Reconfigure()
	if err != nil {
		t.Fatal(err)
	}
	got, ok := chip.Plan()
	if !ok || got.OK != plan.OK {
		t.Error("plan not cached")
	}
	st := chip.Status()
	if !st.Reconfigured || st.ReconfigOK != plan.OK {
		t.Errorf("status %+v inconsistent with plan %+v", st, plan.OK)
	}
	if plan.OK && st.Repairs != st.FaultyPrimaries {
		t.Errorf("OK plan repaired %d of %d faulty primaries", st.Repairs, st.FaultyPrimaries)
	}
}

func TestInjectValidation(t *testing.T) {
	chip := newChip(t, layout.DTMB26(), 30)
	if err := chip.InjectBernoulli(1, 1.5); err == nil {
		t.Error("p>1 accepted")
	}
	if err := chip.InjectBernoulli(1, math.NaN()); err == nil {
		t.Error("NaN p accepted")
	}
	if err := chip.InjectFixed(1, -3, defects.AllCells); err == nil {
		t.Error("negative m accepted")
	}
	if err := chip.InjectFixed(1, 7, defects.AllCells); err != nil {
		t.Errorf("valid injection failed: %v", err)
	}
	if chip.Faults().Count() != 7 {
		t.Errorf("fault count %d, want 7", chip.Faults().Count())
	}
}

func TestSetFaultyAndClear(t *testing.T) {
	chip := newChip(t, layout.DTMB16(), 60)
	prim := chip.Array().Primaries()[0]
	if err := chip.SetFaulty(prim); err != nil {
		t.Fatal(err)
	}
	if !chip.Faults().IsFaulty(prim) {
		t.Error("SetFaulty did not mark the cell")
	}
	if err := chip.SetFaulty(layout.CellID(99999)); err == nil {
		t.Error("out-of-range cell accepted")
	}
}

func TestMarkUsedRules(t *testing.T) {
	chip := newChip(t, layout.DTMB26(), 60)
	prim := chip.Array().Primaries()[:5]
	if err := chip.MarkUsed(prim...); err != nil {
		t.Fatal(err)
	}
	if chip.NumUsed() != 5 {
		t.Errorf("NumUsed = %d", chip.NumUsed())
	}
	used := chip.UsedCells()
	if len(used) != 5 || used[0] != prim[0] {
		t.Errorf("UsedCells = %v", used)
	}
	spare := chip.Array().Spares()[0]
	if err := chip.MarkUsed(spare); err == nil {
		t.Error("marking a spare as used must fail")
	}
	if err := chip.MarkUsed(layout.CellID(-1)); err == nil {
		t.Error("out-of-range cell accepted")
	}
}

func TestScopedReconfiguration(t *testing.T) {
	chip := newChip(t, layout.DTMB16(), 60)
	// Find an interior primary and kill it together with its only spare.
	var prim layout.CellID = -1
	for _, id := range chip.Array().Primaries() {
		if chip.Array().IsInterior(id) {
			prim = id
			break
		}
	}
	spare := chip.Array().SpareNeighbors(prim)[0]
	if err := chip.SetFaulty(prim, spare); err != nil {
		t.Fatal(err)
	}
	all, err := chip.Reconfigure()
	if err != nil {
		t.Fatal(err)
	}
	if all.OK {
		t.Fatal("RepairAll should fail with dead spare")
	}
	// The faulty primary is not used, so scoped repair succeeds.
	scoped, err := chip.ReconfigureScoped(ScopeUsed)
	if err != nil {
		t.Fatal(err)
	}
	if !scoped.OK {
		t.Error("ScopeUsed should tolerate idle faulty primary")
	}
}

func TestStatusString(t *testing.T) {
	chip := newChip(t, layout.DTMB36(), 60)
	s := chip.Status().String()
	if !strings.Contains(s, "DTMB(3,6)") || !strings.Contains(s, "not reconfigured") {
		t.Errorf("status string %q", s)
	}
	if err := chip.InjectFixed(3, 5, defects.AllCells); err != nil {
		t.Fatal(err)
	}
	if _, err := chip.Reconfigure(); err != nil {
		t.Fatal(err)
	}
	s = chip.Status().String()
	if !strings.Contains(s, "reconfig") {
		t.Errorf("status string %q", s)
	}
}

func TestAnalyzeYield(t *testing.T) {
	chip := newChip(t, layout.DTMB26(), 100)
	ya, err := chip.AnalyzeYield(0.95, 800, 6)
	if err != nil {
		t.Fatal(err)
	}
	if ya.Yield < 0 || ya.Yield > 1 || ya.CILo > ya.Yield || ya.CIHi < ya.Yield {
		t.Errorf("inconsistent analysis %+v", ya)
	}
	wantEY := ya.Yield * float64(ya.NPrimary) / float64(ya.NTotal)
	if math.Abs(ya.EffectiveYield-wantEY) > 1e-12 {
		t.Errorf("EY %v, want %v", ya.EffectiveYield, wantEY)
	}
	if ya.NoRedundancy >= ya.Yield {
		t.Errorf("redundant yield %v not above baseline %v at p=0.95", ya.Yield, ya.NoRedundancy)
	}
	if _, err := chip.AnalyzeYield(1.2, 100, 6); err == nil {
		t.Error("invalid p accepted")
	}
}

func TestRecommendDesignExtremes(t *testing.T) {
	// Paper Fig. 10: at high p the low-redundancy designs win on effective
	// yield; at low p the high-redundancy designs win.
	low, err := RecommendDesign(0.80, 60, 600, 10)
	if err != nil {
		t.Fatal(err)
	}
	high, err := RecommendDesign(0.999, 60, 600, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(low.Analyses) != 4 || len(high.Analyses) != 4 {
		t.Fatal("expected analyses for all four designs")
	}
	if low.Best.RR() <= high.Best.RR() {
		t.Errorf("low-p best %s (RR %.2f) should be more redundant than high-p best %s (RR %.2f)",
			low.Best.Name, low.Best.RR(), high.Best.Name, high.Best.RR())
	}
}

// TestYieldConsistencyAcrossEntryPoints cross-checks the three routes to a
// yield number: direct Monte-Carlo, the core Biochip analysis, and (for
// DTMB(1,6) cluster-complete arrays) the closed form.
func TestYieldConsistencyAcrossEntryPoints(t *testing.T) {
	arr, err := layout.BuildClusterCompleteDTMB16(15)
	if err != nil {
		t.Fatal(err)
	}
	const (
		p    = 0.98
		runs = 6000
		seed = 5
	)
	mc := yieldsim.NewMonteCarlo(seed)
	mc.Runs = runs
	res, err := mc.Yield(arr, p)
	if err != nil {
		t.Fatal(err)
	}
	an, err := FromArray(arr).AnalyzeYield(p, runs, seed)
	if err != nil {
		t.Fatal(err)
	}
	if an.Successes != res.Successes || an.Runs != res.Runs || an.CILo != res.CILo || an.CIHi != res.CIHi {
		t.Errorf("Biochip analysis %d/%d [%v, %v] differs from direct Monte-Carlo %d/%d [%v, %v]",
			an.Successes, an.Runs, an.CILo, an.CIHi, res.Successes, res.Runs, res.CILo, res.CIHi)
	}
	analytic := yieldsim.ClusterYieldDTMB16(p, arr.NumPrimary())
	if analytic < res.CILo-0.02 || analytic > res.CIHi+0.02 {
		t.Errorf("analytic %v outside MC interval [%v, %v]", analytic, res.CILo, res.CIHi)
	}
}
