// Package reconfig implements reconfiguration of defect-tolerant
// microfluidic arrays.
//
// The primary technique is the paper's local reconfiguration: every faulty
// primary cell is functionally replaced by a physically adjacent, fault-free
// interstitial spare cell. Feasibility and the assignment itself are
// computed with maximum bipartite matching (paper §6, Fig. 8): left vertices
// are faulty primaries, right vertices fault-free spares, edges are physical
// adjacency, and reconfiguration succeeds iff a maximum matching covers all
// faulty primaries.
//
// The package also implements the baseline the paper argues against —
// boundary-spare-row redundancy with "shifted replacement" (Fig. 2) — in
// shifted.go, to quantify the reconfiguration-cost gap.
package reconfig

import (
	"fmt"

	"dmfb/internal/defects"
	"dmfb/internal/layout"
)

// Assignment records one replacement: the faulty primary cell and the
// adjacent spare that assumes its function.
type Assignment struct {
	Faulty layout.CellID
	Spare  layout.CellID
}

// Plan is the outcome of a local-reconfiguration attempt.
type Plan struct {
	// OK reports whether every faulty primary was assigned a spare.
	OK bool
	// Assignments lists the replacements, sorted by faulty cell ID. When OK
	// is false it still holds the maximum partial assignment.
	Assignments []Assignment
	// Unmatched lists the faulty primaries without a spare (empty when OK).
	Unmatched []layout.CellID
	// FaultyPrimaries and FaultySpares count the faults by role, for
	// reporting.
	FaultyPrimaries, FaultySpares int
	// HallWitness, when OK is false, is a set S of faulty primaries whose
	// combined spare neighborhood is smaller than |S| — a certificate that
	// no reconfiguration exists (König construction).
	HallWitness []layout.CellID
}

// CellsRemapped returns the number of cells whose function moves — for local
// reconfiguration exactly one per repaired fault, the property that makes
// interstitial redundancy cheap.
func (p Plan) CellsRemapped() int { return len(p.Assignments) }

// Scope selects which faulty primaries a reconfiguration must repair.
type Scope uint8

const (
	// RepairAll requires every faulty primary cell to be replaced (the
	// paper's Monte-Carlo criterion).
	RepairAll Scope = iota
	// RepairUsed requires only faulty cells in active use by the bioassay to
	// be replaced; unused faulty primaries are tolerated by leaving them
	// idle. An ablation policy for the case study.
	RepairUsed
)

// String names the scope.
func (s Scope) String() string {
	if s == RepairUsed {
		return "repair-used"
	}
	return "repair-all"
}

// Options configures LocalReconfigure.
type Options struct {
	// Scope selects the repair criterion; default RepairAll.
	Scope Scope
	// Used marks the primary cells in active use; required iff Scope is
	// RepairUsed. Indexed by CellID.
	Used []bool
}

// LocalReconfigure computes a local reconfiguration plan for the array under
// the given fault set. Spares that are themselves faulty are unusable; a
// spare repairs at most one primary. The plan comes from the same repair
// graph and the same matcher a Session uses for its verdicts, so
// plan.OK always equals Session.Feasible.
func LocalReconfigure(arr *layout.Array, faults *defects.FaultSet, opts Options) (Plan, error) {
	s, err := NewSession(arr, opts)
	if err != nil {
		return Plan{}, err
	}
	if err := s.checkFaults(faults); err != nil {
		return Plan{}, err
	}
	var plan Plan
	for _, id := range arr.Primaries() {
		if faults.IsFaulty(id) {
			plan.FaultyPrimaries++
		}
	}
	for _, id := range arr.Spares() {
		if faults.IsFaulty(id) {
			plan.FaultySpares++
		}
	}
	s.plan(faults.Words(), &plan)
	return plan, nil
}

// Verify checks that the plan is sound for the given array and fault set:
// every assignment pairs a faulty primary with an adjacent fault-free spare,
// no spare repairs two primaries, and (when the plan claims success under
// RepairAll) every faulty primary is covered. It returns nil when sound.
func Verify(arr *layout.Array, faults *defects.FaultSet, plan Plan) error {
	usedSpare := make(map[layout.CellID]layout.CellID)
	covered := make(map[layout.CellID]bool)
	for _, a := range plan.Assignments {
		cell := arr.Cell(a.Faulty)
		if cell.Role != layout.Primary {
			return fmt.Errorf("reconfig: assignment repairs non-primary %d", a.Faulty)
		}
		if !faults.IsFaulty(a.Faulty) {
			return fmt.Errorf("reconfig: assignment repairs healthy cell %d", a.Faulty)
		}
		if arr.Cell(a.Spare).Role != layout.Spare {
			return fmt.Errorf("reconfig: replacement %d is not a spare", a.Spare)
		}
		if faults.IsFaulty(a.Spare) {
			return fmt.Errorf("reconfig: replacement spare %d is faulty", a.Spare)
		}
		adjacent := false
		for _, s := range arr.SpareNeighbors(a.Faulty) {
			if s == a.Spare {
				adjacent = true
				break
			}
		}
		if !adjacent {
			return fmt.Errorf("reconfig: spare %d not adjacent to faulty %d", a.Spare, a.Faulty)
		}
		if prev, dup := usedSpare[a.Spare]; dup {
			return fmt.Errorf("reconfig: spare %d assigned to both %d and %d", a.Spare, prev, a.Faulty)
		}
		usedSpare[a.Spare] = a.Faulty
		if covered[a.Faulty] {
			return fmt.Errorf("reconfig: primary %d repaired twice", a.Faulty)
		}
		covered[a.Faulty] = true
	}
	if plan.OK {
		for _, id := range plan.Unmatched {
			return fmt.Errorf("reconfig: plan claims OK but %d unmatched", id)
		}
	}
	return nil
}

// VerifyComplete additionally checks that, under RepairAll semantics, a plan
// claiming success covers every faulty primary of the array.
func VerifyComplete(arr *layout.Array, faults *defects.FaultSet, plan Plan) error {
	if err := Verify(arr, faults, plan); err != nil {
		return err
	}
	if !plan.OK {
		return nil
	}
	covered := make(map[layout.CellID]bool, len(plan.Assignments))
	for _, a := range plan.Assignments {
		covered[a.Faulty] = true
	}
	for _, id := range arr.Primaries() {
		if faults.IsFaulty(id) && !covered[id] {
			return fmt.Errorf("reconfig: OK plan leaves faulty primary %d unrepaired", id)
		}
	}
	return nil
}
