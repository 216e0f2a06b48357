// Package fluidics is a cycle-accurate simulator for droplet transport on a
// defect-tolerant microfluidic array. Each cycle the caller issues
// per-droplet commands (hold, move to an adjacent cell, merge, split); the
// simulator enforces the device's physical rules:
//
//   - microfluidic locality: droplets move only to physically adjacent cells;
//   - dead cells: droplets can never enter a faulty cell (dielectric
//     breakdown, shorted or open electrodes cannot actuate);
//   - fluidic non-interference: two droplets must never come within one cell
//     of each other unless they are deliberately merging, or they would
//     coalesce accidentally;
//   - merge and split semantics from the droplet package, with
//     transport-driven mixing of merged droplets.
//
// The simulator is the substrate on which the bioassay workloads of the
// case study execute, and what makes reconfiguration observable end to end:
// after local reconfiguration the caller re-routes droplets around the
// faulty cells onto replacement spares.
package fluidics

import (
	"fmt"
	"sort"

	"dmfb/internal/defects"
	"dmfb/internal/droplet"
	"dmfb/internal/layout"
)

// DropletID identifies a droplet within a simulation.
type DropletID int

// State is one droplet's position and payload.
type State struct {
	ID   DropletID
	Cell layout.CellID
	D    droplet.Droplet
}

// EventKind tags simulation log entries.
type EventKind uint8

// Event kinds recorded in the simulation log.
const (
	EvDispense EventKind = iota
	EvMove
	EvHold
	EvMerge
	EvSplit
	EvRemove
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EvDispense:
		return "dispense"
	case EvMove:
		return "move"
	case EvHold:
		return "hold"
	case EvMerge:
		return "merge"
	case EvSplit:
		return "split"
	case EvRemove:
		return "remove"
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// Event is one log entry.
type Event struct {
	Cycle   int
	Kind    EventKind
	Droplet DropletID
	Cell    layout.CellID
	Other   DropletID // merge partner or split twin; -1 otherwise
}

// MixingRatePerMove is how much a transport step homogenizes a merged
// droplet: DMFB mixers work by shuttling the droplet, and experimental
// mixers complete in a few tens of moves.
const MixingRatePerMove = 1.0 / 16

// Sim is the simulator state. Not safe for concurrent use.
type Sim struct {
	arr      *layout.Array
	faults   *defects.FaultSet
	occupied map[layout.CellID]DropletID
	droplets map[DropletID]*State
	nextID   DropletID
	cycle    int
	events   []Event
}

// New creates a simulator over the array. faults may be nil (defect-free).
func New(arr *layout.Array, faults *defects.FaultSet) (*Sim, error) {
	if faults != nil && faults.NumCells() != arr.NumCells() {
		return nil, fmt.Errorf("fluidics: fault set sized %d, array %d", faults.NumCells(), arr.NumCells())
	}
	return &Sim{
		arr:      arr,
		faults:   faults,
		occupied: make(map[layout.CellID]DropletID),
		droplets: make(map[DropletID]*State),
		nextID:   1, // IDs start at 1 so Command's zero MergeWith is inert
	}, nil
}

// Cycle returns the current cycle count.
func (s *Sim) Cycle() int { return s.cycle }

// Events returns the simulation log.
func (s *Sim) Events() []Event { return s.events }

// Droplet returns the state of a droplet.
func (s *Sim) Droplet(id DropletID) (State, bool) {
	st, ok := s.droplets[id]
	if !ok {
		return State{}, false
	}
	return *st, true
}

// Droplets returns all droplet states sorted by ID.
func (s *Sim) Droplets() []State {
	out := make([]State, 0, len(s.droplets))
	for _, st := range s.droplets {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// faulty reports whether a cell cannot be actuated.
func (s *Sim) faulty(id layout.CellID) bool {
	return s.faults != nil && s.faults.IsFaulty(id)
}

// usable reports whether a droplet may occupy the cell.
func (s *Sim) usable(id layout.CellID) bool {
	return id >= 0 && int(id) < s.arr.NumCells() && !s.faulty(id)
}

// interferes reports whether placing droplet id at cell would violate the
// static fluidic constraint against the current occupancy, ignoring the
// droplets in ignore.
func (s *Sim) interferes(cell layout.CellID, ignore map[DropletID]bool) bool {
	if other, ok := s.occupied[cell]; ok && !ignore[other] {
		return true
	}
	for _, nb := range s.arr.Neighbors(cell) {
		if other, ok := s.occupied[nb]; ok && !ignore[other] {
			return true
		}
	}
	return false
}

// Dispense introduces a new droplet at the given cell (a reservoir port).
func (s *Sim) Dispense(cell layout.CellID, d droplet.Droplet) (DropletID, error) {
	if !s.usable(cell) {
		return 0, fmt.Errorf("fluidics: cell %d unusable for dispense", cell)
	}
	if s.interferes(cell, nil) {
		return 0, fmt.Errorf("fluidics: dispense at %d violates fluidic spacing", cell)
	}
	id := s.nextID
	s.nextID++
	s.droplets[id] = &State{ID: id, Cell: cell, D: d}
	s.occupied[cell] = id
	s.log(EvDispense, id, cell, -1)
	return id, nil
}

// Remove takes a droplet off the array (waste port or detection complete).
func (s *Sim) Remove(id DropletID) error {
	st, ok := s.droplets[id]
	if !ok {
		return fmt.Errorf("fluidics: droplet %d unknown", id)
	}
	delete(s.occupied, st.Cell)
	delete(s.droplets, id)
	s.log(EvRemove, id, st.Cell, -1)
	return nil
}

// Command directs one droplet for one cycle.
type Command struct {
	Droplet DropletID
	// Target is the destination cell: the droplet's own cell to hold, or an
	// adjacent cell to move.
	Target layout.CellID
	// MergeWith names a droplet this one is allowed to coalesce with this
	// cycle; -1 (or zero-value with NoMerge) forbids contact.
	MergeWith DropletID
}

// NoMerge marks a command without a merge partner. The zero value of
// Command.MergeWith (0) also means "no merge": droplet IDs start at 1.
const NoMerge DropletID = -1

// Step advances one cycle, applying the commands simultaneously. Droplets
// without a command hold in place. On any rule violation the step aborts
// with an error and no state changes.
func (s *Sim) Step(cmds []Command) error {
	// Destination per droplet; default hold.
	dest := make(map[DropletID]layout.CellID, len(s.droplets))
	mergeWith := make(map[DropletID]DropletID, len(cmds))
	for id, st := range s.droplets {
		dest[id] = st.Cell
	}
	for _, c := range cmds {
		st, ok := s.droplets[c.Droplet]
		if !ok {
			return fmt.Errorf("fluidics: cycle %d: droplet %d unknown", s.cycle, c.Droplet)
		}
		if _, dup := mergeWith[c.Droplet]; dup {
			return fmt.Errorf("fluidics: cycle %d: duplicate command for droplet %d", s.cycle, c.Droplet)
		}
		if c.Target != st.Cell {
			adjacent := false
			for _, nb := range s.arr.Neighbors(st.Cell) {
				if nb == c.Target {
					adjacent = true
					break
				}
			}
			if !adjacent {
				return fmt.Errorf("fluidics: cycle %d: droplet %d cannot jump %d -> %d",
					s.cycle, c.Droplet, st.Cell, c.Target)
			}
		}
		if !s.usable(c.Target) {
			return fmt.Errorf("fluidics: cycle %d: droplet %d target %d is faulty or absent",
				s.cycle, c.Droplet, c.Target)
		}
		dest[c.Droplet] = c.Target
		mergeWith[c.Droplet] = c.MergeWith
	}

	// Swap check: two droplets exchanging cells would collide mid-flight.
	cellNow := make(map[layout.CellID]DropletID, len(s.droplets))
	for id, st := range s.droplets {
		cellNow[st.Cell] = id
	}
	for id, to := range dest {
		if other, ok := cellNow[to]; ok && other != id {
			if dest[other] == s.droplets[id].Cell {
				return fmt.Errorf("fluidics: cycle %d: droplets %d and %d would swap cells", s.cycle, id, other)
			}
		}
	}

	// Grouping by destination: same destination means merge, which both
	// droplets must have sanctioned.
	byDest := make(map[layout.CellID][]DropletID)
	for id, to := range dest {
		byDest[to] = append(byDest[to], id)
	}
	for to, ids := range byDest {
		if len(ids) == 1 {
			continue
		}
		if len(ids) > 2 {
			return fmt.Errorf("fluidics: cycle %d: %d droplets converge on cell %d", s.cycle, len(ids), to)
		}
		a, b := ids[0], ids[1]
		if mergeWith[a] != b || mergeWith[b] != a {
			return fmt.Errorf("fluidics: cycle %d: unsanctioned merge of %d and %d at cell %d",
				s.cycle, a, b, to)
		}
	}

	// Fluidic non-interference on the new configuration: no two distinct
	// (non-merging) droplets on the same or adjacent cells.
	for id, to := range dest {
		for _, nb := range append([]layout.CellID{to}, s.arr.Neighbors(to)...) {
			for other, oto := range dest {
				if other == id || oto != nb {
					continue
				}
				merging := (mergeWith[id] == other && mergeWith[other] == id)
				if !merging {
					return fmt.Errorf("fluidics: cycle %d: droplets %d and %d violate spacing at cells %d/%d",
						s.cycle, id, other, to, oto)
				}
			}
		}
	}

	// Commit: apply moves, then merges.
	s.cycle++
	for id, to := range dest {
		st := s.droplets[id]
		if to != st.Cell {
			delete(s.occupied, st.Cell)
			st.Cell = to
			st.D.AdvanceMixing(MixingRatePerMove)
			s.log(EvMove, id, to, -1)
		} else {
			s.log(EvHold, id, to, -1)
		}
	}
	merged := make(map[DropletID]bool)
	for _, ids := range byDest {
		if len(ids) != 2 {
			continue
		}
		a, b := ids[0], ids[1]
		if a > b {
			a, b = b, a
		}
		sa, sb := s.droplets[a], s.droplets[b]
		sa.D = droplet.Merge(sa.D, sb.D)
		delete(s.droplets, b)
		merged[b] = true
		s.log(EvMerge, a, sa.Cell, b)
	}
	// Rebuild occupancy.
	s.occupied = make(map[layout.CellID]DropletID, len(s.droplets))
	for id, st := range s.droplets {
		s.occupied[st.Cell] = id
	}
	return nil
}

// Split divides droplet id into two: the original stays put and the twin
// appears at the adjacent cell target (splitting pulls the droplet apart
// onto two electrodes). The droplet must be fully mixed.
func (s *Sim) Split(id DropletID, target layout.CellID) (DropletID, error) {
	st, ok := s.droplets[id]
	if !ok {
		return 0, fmt.Errorf("fluidics: droplet %d unknown", id)
	}
	adjacent := false
	for _, nb := range s.arr.Neighbors(st.Cell) {
		if nb == target {
			adjacent = true
			break
		}
	}
	if !adjacent {
		return 0, fmt.Errorf("fluidics: split target %d not adjacent to %d", target, st.Cell)
	}
	if !s.usable(target) {
		return 0, fmt.Errorf("fluidics: split target %d unusable", target)
	}
	ignore := map[DropletID]bool{id: true}
	if s.interferes(target, ignore) {
		return 0, fmt.Errorf("fluidics: split target %d violates fluidic spacing", target)
	}
	a, b, err := droplet.Split(st.D)
	if err != nil {
		return 0, err
	}
	st.D = a
	twin := s.nextID
	s.nextID++
	s.droplets[twin] = &State{ID: twin, Cell: target, D: b}
	s.occupied[target] = twin
	s.cycle++
	s.log(EvSplit, id, st.Cell, twin)
	return twin, nil
}

func (s *Sim) log(kind EventKind, id DropletID, cell layout.CellID, other DropletID) {
	s.events = append(s.events, Event{
		Cycle: s.cycle, Kind: kind, Droplet: id, Cell: cell, Other: other,
	})
}

// FollowPath moves a droplet along a precomputed path of adjacent cells,
// one cell per cycle, holding all other droplets. It is the single-droplet
// convenience used by tests, examples, and the test-plan executor.
func (s *Sim) FollowPath(id DropletID, path []layout.CellID) error {
	for _, cell := range path {
		st, ok := s.droplets[id]
		if !ok {
			return fmt.Errorf("fluidics: droplet %d unknown", id)
		}
		if cell == st.Cell {
			continue
		}
		if err := s.Step([]Command{{Droplet: id, Target: cell, MergeWith: NoMerge}}); err != nil {
			return err
		}
	}
	return nil
}
