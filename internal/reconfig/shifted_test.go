package reconfig

import (
	"strings"
	"testing"

	"dmfb/internal/sqgrid"
)

func TestFigure2FaultInModule1TouchesOnlyModule1(t *testing.T) {
	// Paper Fig. 2(b): a fault in Module 1 (adjacent to the spare row) is
	// repaired by relocating Module 1 alone.
	p := sqgrid.Figure2Placement()
	fault := sqgrid.Coord{X: 3, Y: 6} // top row of Module 1
	res, err := ShiftedReplacement(p, fault)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("repair failed: %s", res.Reason)
	}
	if len(res.ModulesReconfigured) != 1 || res.ModulesReconfigured[0] != "Module 1" {
		t.Errorf("modules touched = %v, want only Module 1", res.ModulesReconfigured)
	}
	// Chain: fault row 6 -> rows 7, 8 (Module 1), 9 (spare). 3 remapped.
	if res.CellsRemapped != 3 {
		t.Errorf("CellsRemapped = %d, want 3", res.CellsRemapped)
	}
}

func TestFigure2FaultInModule3DragsFaultFreeModules(t *testing.T) {
	// Paper Fig. 2(c): a fault in Module 3 forces reconfiguration of the
	// fault-free Modules 1 and 2 — the cost interstitial redundancy avoids.
	p := sqgrid.Figure2Placement()
	fault := sqgrid.Coord{X: 3, Y: 1} // middle of Module 3
	res, err := ShiftedReplacement(p, fault)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("repair failed: %s", res.Reason)
	}
	joined := strings.Join(res.ModulesReconfigured, ",")
	for _, want := range []string{"Module 1", "Module 2", "Module 3"} {
		if !strings.Contains(joined, want) {
			t.Errorf("modules touched = %v, missing %s", res.ModulesReconfigured, want)
		}
	}
	// Chain runs from row 1 to the spare row 9: 8 cells remapped versus 1
	// for interstitial redundancy.
	if res.CellsRemapped != 8 {
		t.Errorf("CellsRemapped = %d, want 8", res.CellsRemapped)
	}
}

func TestFaultInUnusedCellCostsNothing(t *testing.T) {
	p := sqgrid.Figure2Placement()
	res, err := ShiftedReplacement(p, sqgrid.Coord{X: 0, Y: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || res.CellsRemapped != 0 || len(res.ModulesReconfigured) != 0 {
		t.Errorf("unused fault should be free: %+v", res)
	}
}

func TestCascadeBlockedByFaultyCellBelow(t *testing.T) {
	p := sqgrid.Figure2Placement()
	faults := []sqgrid.Coord{{X: 3, Y: 1}, {X: 3, Y: 4}}
	session, err := NewShiftSession(p, faults)
	if err != nil {
		t.Fatal(err)
	}
	res := session.Repair(sqgrid.Coord{X: 3, Y: 1})
	if res.OK {
		t.Error("cascade through a second faulty cell must fail")
	}
	if res.Reason == "" {
		t.Error("failure must carry a reason")
	}
}

func TestColumnCapacityExhausted(t *testing.T) {
	// Two faults in the same column with one spare row: the second repair
	// must fail because the column's spare cell is consumed.
	p := sqgrid.Figure2Placement()
	faults := []sqgrid.Coord{{X: 2, Y: 6}, {X: 2, Y: 0}}
	session, err := NewShiftSession(p, faults)
	if err != nil {
		t.Fatal(err)
	}
	first := session.Repair(sqgrid.Coord{X: 2, Y: 6})
	if !first.OK {
		t.Fatalf("first repair failed: %s", first.Reason)
	}
	second := session.Repair(sqgrid.Coord{X: 2, Y: 0})
	if second.OK {
		t.Error("second repair in same column should exhaust spare capacity")
	}
}

func TestRepairUnregisteredFaultFails(t *testing.T) {
	p := sqgrid.Figure2Placement()
	session, err := NewShiftSession(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := session.Repair(sqgrid.Coord{X: 1, Y: 1})
	if res.OK {
		t.Error("unregistered fault accepted")
	}
}

func TestNewShiftSessionValidation(t *testing.T) {
	p := sqgrid.Figure2Placement()
	if _, err := NewShiftSession(p, []sqgrid.Coord{{X: 100, Y: 0}}); err == nil {
		t.Error("off-grid fault accepted")
	}
	noSpare := p
	noSpare.SpareRows = 0
	if _, err := NewShiftSession(noSpare, nil); err == nil {
		t.Error("placement without spare rows accepted")
	}
	invalid := p.Clone()
	invalid.Modules[0].X = -5
	if _, err := NewShiftSession(invalid, nil); err == nil {
		t.Error("invalid placement accepted")
	}
}

func TestCompareWithInterstitialFigure2(t *testing.T) {
	p := sqgrid.Figure2Placement()
	faults := []sqgrid.Coord{{X: 3, Y: 1}} // Module 3 fault
	cmp, results, err := CompareWithInterstitial(p, faults)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || !cmp.ShiftedOK {
		t.Fatalf("unexpected results %+v", cmp)
	}
	if cmp.InterstitialCellsRemapped != 1 {
		t.Error("interstitial cost must be one cell per fault")
	}
	if cmp.ShiftedCellsRemapped <= cmp.InterstitialCellsRemapped {
		t.Errorf("shifted (%d) should cost more than interstitial (%d)",
			cmp.ShiftedCellsRemapped, cmp.InterstitialCellsRemapped)
	}
	if cmp.ShiftedModulesTouched != 3 || cmp.InterstitialModules != 1 {
		t.Errorf("modules: shifted %d interstitial %d", cmp.ShiftedModulesTouched, cmp.InterstitialModules)
	}
}

func TestCompareWithInterstitialMultiFaultOrdering(t *testing.T) {
	// Deepest-first ordering lets two faults in different columns succeed.
	p := sqgrid.Figure2Placement()
	faults := []sqgrid.Coord{{X: 1, Y: 0}, {X: 5, Y: 7}}
	cmp, results, err := CompareWithInterstitial(p, faults)
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.ShiftedOK {
		for _, r := range results {
			t.Logf("result: %+v", r)
		}
		t.Fatal("independent columns should both repair")
	}
	if cmp.Faults != 2 || cmp.InterstitialCellsRemapped != 2 {
		t.Errorf("comparison bookkeeping wrong: %+v", cmp)
	}
}
