package reconfig

import (
	"fmt"
	"sort"

	"dmfb/internal/sqgrid"
)

// Shifted replacement is the boundary-redundancy baseline of the paper's
// Fig. 2: spare rows sit at the array boundary, and a faulty cell is repaired
// by shifting cell functions along its column toward the spare row — "each
// faulty cell is replaced by one of its fault-free adjacent cells, which is
// in turn replaced by one of its adjacent cells, and so on, until a spare
// cell from the boundary is incorporated". Because of microfluidic locality
// this cascade drags fault-free modules into the reconfiguration, which is
// precisely the cost interstitial redundancy avoids.

// ShiftResult reports the cost of repairing one fault by shifted replacement.
type ShiftResult struct {
	// OK reports whether the repair succeeded.
	OK bool
	// Reason explains a failure ("" when OK).
	Reason string
	// Chain lists the cells whose function moved, from the faulty cell down
	// to (and including) the cell that absorbed the cascade.
	Chain []sqgrid.Coord
	// ModulesReconfigured names the modules whose mapping changed, in
	// placement order. Fault-free modules in the chain appear here — the
	// overhead the paper criticizes.
	ModulesReconfigured []string
	// CellsRemapped counts cells whose logical function moved.
	CellsRemapped int
}

// shiftState tracks consumed cells across a multi-fault repair session.
type shiftState struct {
	p        sqgrid.Placement
	consumed map[sqgrid.Coord]bool
	faulty   map[sqgrid.Coord]bool
}

// ShiftedReplacement repairs a single faulty cell on a spare-row placement
// and reports the reconfiguration cost.
func ShiftedReplacement(p sqgrid.Placement, fault sqgrid.Coord) (ShiftResult, error) {
	session, err := NewShiftSession(p, []sqgrid.Coord{fault})
	if err != nil {
		return ShiftResult{}, err
	}
	return session.Repair(fault), nil
}

// ShiftSession repairs a set of faults one at a time, tracking consumed spare
// capacity so that sequential repairs contend for the same boundary rows.
type ShiftSession struct {
	st shiftState
}

// NewShiftSession validates the placement and registers the fault set.
func NewShiftSession(p sqgrid.Placement, faults []sqgrid.Coord) (*ShiftSession, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.SpareRows == 0 {
		return nil, fmt.Errorf("reconfig: placement has no spare rows")
	}
	st := shiftState{
		p:        p,
		consumed: make(map[sqgrid.Coord]bool),
		faulty:   make(map[sqgrid.Coord]bool, len(faults)),
	}
	for _, f := range faults {
		if !p.Grid.Contains(f) {
			return nil, fmt.Errorf("reconfig: fault %v off-grid", f)
		}
		st.faulty[f] = true
	}
	return &ShiftSession{st: st}, nil
}

// Repair runs shifted replacement for one registered fault.
func (s *ShiftSession) Repair(fault sqgrid.Coord) ShiftResult {
	st := &s.st
	if !st.faulty[fault] {
		return ShiftResult{OK: false, Reason: fmt.Sprintf("cell %v not registered as faulty", fault)}
	}
	mi := st.p.ModuleAt(fault)
	if mi < 0 {
		// Fault in an unused cell: nothing to remap.
		return ShiftResult{OK: true}
	}

	// Walk down the column toward the spare rows, building the cascade.
	chain := []sqgrid.Coord{fault}
	modules := map[string]bool{st.p.Modules[mi].Name: true}
	cur := fault
	for {
		next := sqgrid.Coord{X: cur.X, Y: cur.Y + 1}
		if !st.p.Grid.Contains(next) {
			return ShiftResult{
				OK:     false,
				Reason: fmt.Sprintf("column %d has no spare capacity left", fault.X),
				Chain:  chain,
			}
		}
		if st.faulty[next] {
			return ShiftResult{
				OK:     false,
				Reason: fmt.Sprintf("cascade blocked by faulty cell %v", next),
				Chain:  chain,
			}
		}
		if st.consumed[next] {
			// Defensive: a cascade can only meet a consumed cell by first
			// passing the fault that produced it, which the faulty-cell
			// check above already rejects. Under the paper's strict
			// adjacent-shifting scheme a column therefore absorbs at most
			// one repair, no matter how many spare rows lie below.
			return ShiftResult{
				OK:     false,
				Reason: fmt.Sprintf("cascade blocked at %v, already consumed by an earlier repair", next),
				Chain:  chain,
			}
		}
		chain = append(chain, next)
		if ni := st.p.ModuleAt(next); ni >= 0 {
			modules[st.p.Modules[ni].Name] = true
			cur = next
			continue
		}
		// next is unused: the cascade still shifts on until it reaches a
		// boundary spare row, as the paper's pure scheme does.
		if next.Y >= st.p.Grid.H-st.p.SpareRows {
			st.consumed[next] = true
			break
		}
		cur = next
	}

	names := make([]string, 0, len(modules))
	for n := range modules {
		names = append(names, n)
	}
	sort.Strings(names)
	return ShiftResult{
		OK:                  true,
		Chain:               chain,
		ModulesReconfigured: names,
		// The last chain cell gains a function rather than moving one, so
		// remapped cells = chain length − 1 … but the faulty cell's function
		// also moves, so every chain cell except the absorber was remapped.
		CellsRemapped: len(chain) - 1,
	}
}

// CostComparison contrasts shifted replacement against interstitial local
// reconfiguration for the same number of faults (local reconfiguration
// remaps exactly one cell — the adjacent spare — per repaired fault and
// touches no fault-free module).
type CostComparison struct {
	Faults                    int
	ShiftedOK                 bool
	ShiftedCellsRemapped      int
	ShiftedModulesTouched     int
	InterstitialCellsRemapped int
	InterstitialModules       int
}

// CompareWithInterstitial repairs all registered faults by shifted
// replacement (deepest faults first, so column capacity is allocated
// bottom-up) and totals the costs next to interstitial redundancy's
// one-cell-per-fault cost.
func CompareWithInterstitial(p sqgrid.Placement, faults []sqgrid.Coord) (CostComparison, []ShiftResult, error) {
	session, err := NewShiftSession(p, faults)
	if err != nil {
		return CostComparison{}, nil, err
	}
	ordered := append([]sqgrid.Coord(nil), faults...)
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].Y != ordered[j].Y {
			return ordered[i].Y > ordered[j].Y
		}
		return ordered[i].X < ordered[j].X
	})
	cmp := CostComparison{Faults: len(faults), ShiftedOK: true}
	modules := map[string]bool{}
	results := make([]ShiftResult, 0, len(ordered))
	for _, f := range ordered {
		res := session.Repair(f)
		results = append(results, res)
		if !res.OK {
			cmp.ShiftedOK = false
		}
		cmp.ShiftedCellsRemapped += res.CellsRemapped
		for _, m := range res.ModulesReconfigured {
			modules[m] = true
		}
	}
	cmp.ShiftedModulesTouched = len(modules)
	cmp.InterstitialCellsRemapped = len(faults)
	// Interstitial repair touches only the module containing each fault.
	touched := map[int]bool{}
	for _, f := range faults {
		if mi := p.ModuleAt(f); mi >= 0 {
			touched[mi] = true
		}
	}
	cmp.InterstitialModules = len(touched)
	return cmp, results, nil
}
