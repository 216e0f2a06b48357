package reconfig

import (
	"fmt"
	"math/bits"

	"dmfb/internal/defects"
	"dmfb/internal/layout"
	"dmfb/internal/matching"
)

// Session holds the one repair-graph builder and the one matcher of local
// reconfiguration for a fixed array. It answers repeated feasibility
// queries without per-query allocation — the shape of the Monte-Carlo
// yield kernel, where the array never changes and only the fault set does
// (the repeated-feasibility framing of the companion
// dynamic-reconfiguration paper) — and LocalReconfigure builds a one-shot
// Session to materialize its plans on the same graph. The static
// structure is computed once at construction:
//
//   - a dense CellID → spare-slot index numbering the matcher's right side,
//   - the repair-target bitset the options select,
//   - the worst-case matcher scratch sizes (every primary faulty, every
//     spare adjacency an edge), so the embedded matching.Matcher never grows.
//
// Feasible then runs entirely in scratch and materializes no Plan, no
// assignments, and no Hall witness; its verdict is LocalReconfigure's
// plan.OK by construction. Screen settles a whole 64-trial batch before
// the matcher by exact degree-1 peeling (Karp–Sipser), leaving it only
// the core its rules cannot decide — about 1% of faulty trials. Use
// LocalReconfigure when the caller needs the plan itself (API responses,
// the case-study tools); use a Session when only the verdict matters.
//
// A Session is not safe for concurrent use. Workers sharing an array must
// each own a Session; the array itself is read-only and freely shared.
type Session struct {
	arr *layout.Array
	// spareSlot[id] is the dense index of cell id among the array's spares
	// (its right vertex in the repair graph), or -1 for primaries.
	spareSlot []int32
	// targetMask is the repair-target bitset in FaultSet.Words layout:
	// bit i set iff cell i is a primary the options put in scope (all
	// primaries under RepairAll, used primaries under RepairUsed). One AND
	// against the fault words yields the trial's targets, scanned in the
	// same ascending order the primary list would produce.
	targetMask []uint64
	// free, seen, liveS and liveT are Screen's per-batch scratch, carved
	// from targetMask's allocation. free[slot] is the trial word in which
	// spare slot is healthy and has at most one faulty primary neighbour,
	// and liveS[slot] starts as the word in which it is healthy; both are
	// valid once bit slot of seen is set. liveT[id] is the word in which
	// target id is faulty and still unmatched, all-zero between calls.
	free, seen, liveS, liveT []uint64
	// work is Screen's worklist of targets with live lanes, carved from
	// spareSlot's allocation with room for every primary.
	work []int32
	m    *matching.Matcher
}

// NewSession builds a reusable reconfiguration session for the array under
// the given options. The array must outlive the session.
func NewSession(arr *layout.Array, opts Options) (*Session, error) {
	if arr == nil {
		return nil, fmt.Errorf("reconfig: nil array")
	}
	if opts.Scope == RepairUsed && len(opts.Used) != arr.NumCells() {
		return nil, fmt.Errorf("reconfig: RepairUsed requires Used mask of %d cells, got %d",
			arr.NumCells(), len(opts.Used))
	}
	nCells, nSpare := arr.NumCells(), arr.NumSpare()
	slots := make([]int32, nCells+arr.NumPrimary())
	spareSlot := slots[:nCells:nCells]
	for i := range spareSlot {
		spareSlot[i] = -1
	}
	for slot, id := range arr.Spares() {
		spareSlot[id] = int32(slot)
	}
	nWords := (nCells + 63) / 64
	words := make([]uint64, nWords+nCells+2*nSpare+(nSpare+63)/64)
	targetMask := carve(&words, nWords)
	for _, id := range arr.Primaries() {
		if opts.Scope == RepairUsed && !opts.Used[id] {
			continue
		}
		targetMask[id>>6] |= uint64(1) << (uint(id) & 63)
	}
	maxEdges := 0
	for _, id := range arr.Primaries() {
		maxEdges += len(arr.SpareNeighbors(id))
	}
	liveT, free, liveS := carve(&words, nCells), carve(&words, nSpare), carve(&words, nSpare)
	return &Session{
		arr:        arr,
		spareSlot:  spareSlot,
		targetMask: targetMask,
		free:       free,
		seen:       words,
		liveS:      liveS,
		liveT:      liveT,
		work:       slots[nCells:nCells],
		m:          matching.NewMatcher(arr.NumPrimary(), arr.NumSpare(), maxEdges),
	}, nil
}

// carve cuts the next n words off *words, capacity-limited so appends
// cannot spill into the rest.
func carve(words *[]uint64, n int) []uint64 {
	w := (*words)[:n:n]
	*words = (*words)[n:]
	return w
}

// Array returns the array the session is bound to.
func (s *Session) Array() *layout.Array { return s.arr }

// Feasible reports whether local reconfiguration can repair every faulty
// primary in scope: the same verdict as LocalReconfigure(arr, fs, opts).OK,
// computed without heap allocation. Spares that are themselves faulty are
// unusable; a spare repairs at most one primary.
func (s *Session) Feasible(fs *defects.FaultSet) (bool, error) {
	if err := s.checkFaults(fs); err != nil {
		return false, err
	}
	// Degenerate fast path: an all-healthy array needs no repair.
	if fs.Count() == 0 {
		return true, nil
	}
	return s.solve(fs.Words()), nil
}

// checkFaults rejects a fault set that is nil or sized for another array.
func (s *Session) checkFaults(fs *defects.FaultSet) error {
	if fs == nil {
		return fmt.Errorf("reconfig: nil fault set")
	}
	if fs.NumCells() != s.arr.NumCells() {
		return fmt.Errorf("reconfig: fault set sized %d, array %d",
			fs.NumCells(), s.arr.NumCells())
	}
	return nil
}

// FeasibleWords is Feasible over a raw fault bitset in FaultSet.Words
// layout (bit i of words[i/64] = cell i faulty) — the zero-copy entry point
// of the bit-packed trial path, which holds per-trial words from a
// defects.TrialBatch row and never materializes a FaultSet.
func (s *Session) FeasibleWords(words []uint64) (bool, error) {
	if len(words) != len(s.targetMask) {
		return false, fmt.Errorf("reconfig: fault words sized %d, want %d",
			len(words), len(s.targetMask))
	}
	return s.solve(words), nil
}

// Screen judges up to 64 trials at once on a defects.TrialBatch column
// plane (cols[i] bit t = cell i faulty in trial t), before any transpose.
// It returns two disjoint trial masks: fail, the trials that are
// infeasible, and open, the core — the other trials the degree-1 rules
// below leave undecided. Only open trials need the matcher; every other
// trial that drew a fault is feasible.
//
// Every trial (lane) is peeled by Karp and Sipser's degree-1 rules on its
// repair graph, all 64 lanes at once in per-cell live words. The first
// round matches each faulty target to an exclusive healthy spare — a
// healthy adjacent spare with no other faulty primary neighbour, counted
// over all primaries, in scope or not — and fails a trial in which some
// faulty target has no healthy spare at all. If that leaves nothing open,
// Screen returns. Otherwise the targets left without an exclusive spare
// go on a worklist, and rounds over it apply three rules until no live
// word changes: a live target with no live spare fails its trial, a live
// target with exactly one live spare takes it, and a live spare with
// exactly one live target takes it. Each claim removes a pair that some
// maximum matching contains, so the rest of the trial is feasible iff the
// trial was, and every verdict is exact.
//
// Each spare's words are computed at most once per call, when a faulty
// target first reaches it. Screen allocates nothing. It panics unless
// len(cols) is the array's cell count.
func (s *Session) Screen(cols []uint64) (fail, open uint64) {
	if len(cols) != s.arr.NumCells() {
		panic("reconfig: screened columns sized for a different array")
	}
	for i := range s.seen {
		s.seen[i] = 0
	}
	work := s.work[:0]
	for w, tm := range s.targetMask {
		for ; tm != 0; tm &= tm - 1 {
			c := layout.CellID(w<<6 + bits.TrailingZeros64(tm))
			f := cols[c]
			if f == 0 {
				continue
			}
			var healthy, exclusive uint64
			for _, sp := range s.arr.SpareNeighbors(c) {
				slot := s.spareSlot[sp]
				if bit := uint64(1) << (uint(slot) & 63); s.seen[slot>>6]&bit == 0 {
					s.seen[slot>>6] |= bit
					// ones/twos: the trials with at least one, and at
					// least two, faulty primary neighbours of sp.
					var ones, twos uint64
					for _, p := range s.arr.PrimaryNeighbors(sp) {
						x := cols[p]
						twos |= ones & x
						ones |= x
					}
					s.free[slot] = ^cols[sp] &^ twos
					s.liveS[slot] = ^cols[sp]
				}
				healthy |= ^cols[sp]
				exclusive |= s.free[slot]
			}
			fail |= f &^ healthy
			if live := f &^ exclusive; live != 0 {
				s.liveT[c] = live
				open |= live
				work = append(work, int32(c))
			}
		}
	}
	if open&^fail != 0 {
		fail, open = s.peel(work, fail)
	}
	for _, c := range work {
		s.liveT[c] = 0
	}
	return fail, open &^ fail
}

// peel runs Screen's degree-1 rounds over the worklist targets and
// returns fail grown by the trials a target rule failed, and the core:
// the trials in which some target is still live. Targets whose live word
// empties drop off the worklist, which is compacted in place.
func (s *Session) peel(work []int32, fail uint64) (uint64, uint64) {
	for changed := true; changed; {
		changed = false
		k := 0
		for _, c := range work {
			id := layout.CellID(c)
			live := s.liveT[id] &^ fail
			spares := s.arr.SpareNeighbors(id)
			// Target rule: no live spare fails the lane; exactly one is
			// taken, and it is the only spare whose word has that lane.
			var ones, twos uint64
			for _, sp := range spares {
				ls := s.liveS[s.spareSlot[sp]]
				twos |= ones & ls
				ones |= ls
			}
			fail |= live &^ ones
			if one := live & ones &^ twos; one != 0 {
				for _, sp := range spares {
					s.liveS[s.spareSlot[sp]] &^= one
				}
			}
			// Spare rule, on the lanes with two or more live spares: a
			// live spare whose only live target is c.
			live &= twos
			for _, sp := range spares {
				if live == 0 {
					break
				}
				var others uint64
				for _, p := range s.arr.PrimaryNeighbors(sp) {
					if p != id {
						others |= s.liveT[p]
					}
				}
				slot := s.spareSlot[sp]
				if take := s.liveS[slot] & live &^ others; take != 0 {
					s.liveS[slot] &^= take
					live &^= take
				}
			}
			if live != s.liveT[id] {
				changed = true
			}
			s.liveT[id] = live
			if live != 0 {
				work[k] = c
				k++
			}
		}
		work = work[:k]
	}
	var open uint64
	for _, c := range work {
		open |= s.liveT[c]
	}
	return fail, open
}

// DefaultMemoCapacity was the per-worker entry budget of the removed
// feasibility memo.
//
// Deprecated: feasibility is no longer memoized, because a memoized verdict
// cost more than a fresh solve; the constant is kept only for old callers.
const DefaultMemoCapacity = 2048

// EnableMemo reports whether feasibility memoization took effect, which it
// never does: every query runs the matcher.
//
// Deprecated: feasibility is no longer memoized, because a memoized verdict
// cost more than a fresh solve; the method is kept only for old callers.
func (s *Session) EnableMemo(capacity int) bool { return false }

// GraphSignature returns the matching.Matcher signature of the repair graph
// left by the most recent build — the differential suite's witness that
// two feasibility paths built the identical graph. Queries answered without
// building (all-healthy draws, and trials Screen settles) leave the
// previous graph in place.
func (s *Session) GraphSignature() uint64 { return s.m.GraphSignature() }

// solve answers the feasibility query for a fault bitset on the matcher.
func (s *Session) solve(words []uint64) bool {
	return s.build(words, nil) && s.m.SaturatesA()
}

// plan solves the full repair graph of a fault bitset and fills in the
// verdict, the assignments, the unmatched targets and, when infeasible,
// the Hall witness. Targets are in ascending cell order, so every list
// comes out sorted by faulty cell ID.
func (s *Session) plan(words []uint64, plan *Plan) {
	var targets []layout.CellID
	s.build(words, &targets)
	plan.OK = s.m.MaxMatchingSize() == len(targets)
	spares := s.arr.Spares()
	for ti, t := range targets {
		if slot := s.m.Partner(ti); slot != matching.Unmatched {
			plan.Assignments = append(plan.Assignments, Assignment{Faulty: t, Spare: spares[slot]})
		} else {
			plan.Unmatched = append(plan.Unmatched, t)
		}
	}
	if !plan.OK {
		for _, ti := range s.m.HallViolation() {
			plan.HallWitness = append(plan.HallWitness, targets[ti])
		}
	}
}

// build feeds the matcher the repair graph of a fault bitset. Targets —
// the left vertices — are the set bits of words ∧ targetMask, visited in
// ascending cell order; each is wired to its healthy adjacent spares by
// spare slot, so faulty spares simply receive no edges. With targets nil
// (the verdict path) build stops at the first target with no healthy
// adjacent spare, an immediate Hall violation (|N({t})| = 0), and returns
// false. Otherwise it builds every target, appending each to *targets in
// left-vertex order, and returns true.
func (s *Session) build(words []uint64, targets *[]layout.CellID) bool {
	s.m.Reset(s.arr.NumSpare())
	for w, tm := range s.targetMask {
		ww := words[w] & tm
		for ; ww != 0; ww &= ww - 1 {
			id := layout.CellID(w<<6 + bits.TrailingZeros64(ww))
			for _, sp := range s.arr.SpareNeighbors(id) {
				if words[sp>>6]&(uint64(1)<<(uint(sp)&63)) == 0 {
					s.m.AddEdge(int(s.spareSlot[sp]))
				}
			}
			if s.m.EndLeft() == 0 && targets == nil {
				return false
			}
			if targets != nil {
				*targets = append(*targets, id)
			}
		}
	}
	return true
}
