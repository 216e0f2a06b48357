package reconfig

import (
	"testing"

	"dmfb/internal/defects"
	"dmfb/internal/layout"
	"dmfb/internal/matching"
)

// TestDifferentialSessionFeasibleMatchesLocalReconfigure is the randomized
// differential test pinning the session's allocation-free verdict to the
// plan-materializing path over every constructible design, several fault
// patterns (Bernoulli at low/medium/high density, fixed-count, clustered),
// and a spread of seeds — and both to the independent Kuhn reference
// (kuhnPlan), which they must agree with because every maximum matching
// has the same size.
func TestDifferentialSessionFeasibleMatchesLocalReconfigure(t *testing.T) {
	seeds := int64(25)
	if testing.Short() {
		seeds = 5
	}
	for _, d := range layout.AllDesignsWithVariants() {
		arr, err := layout.BuildWithPrimaryTarget(d, 60)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := NewSession(arr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		check := func(fs *defects.FaultSet, pattern string, seed int64) {
			t.Helper()
			got, err := sess.Feasible(fs)
			if err != nil {
				t.Fatalf("%s %s seed %d: Feasible: %v", d.Name, pattern, seed, err)
			}
			plan, err := LocalReconfigure(arr, fs, Options{})
			if err != nil {
				t.Fatalf("%s %s seed %d: LocalReconfigure: %v", d.Name, pattern, seed, err)
			}
			for _, kuhn := range []bool{false, true} {
				ok := plan.OK
				if kuhn {
					ok = kuhnPlan(t, arr, fs, Options{}).OK
				}
				if got != ok {
					t.Fatalf("%s %s seed %d (kuhn=%v): Feasible=%v, LocalReconfigure.OK=%v (%d faults)",
						d.Name, pattern, seed, kuhn, got, ok, fs.Count())
				}
			}
		}
		var fs *defects.FaultSet
		for seed := int64(0); seed < seeds; seed++ {
			in := defects.NewInjector(seed)
			for _, p := range []float64{0.99, 0.95, 0.85, 0.60} {
				fs = in.Bernoulli(arr, p, fs)
				check(fs, "bernoulli", seed)
			}
			for _, m := range []int{0, 1, 5, 20, arr.NumCells() / 3} {
				fs, err = in.FixedCount(arr, m, defects.AllCells, fs)
				if err != nil {
					t.Fatal(err)
				}
				check(fs, "fixed-count", seed)
			}
			fs, _, err = in.Clustered(arr, defects.ClusterParams{MeanDefects: 8, ClusterSize: 4}, fs)
			if err != nil {
				t.Fatal(err)
			}
			check(fs, "clustered", seed)
		}
	}
}

// TestDifferentialFeasibleWordsMatchesFaultSet pins the two public entry
// points to each other and both to a reference repair graph built the
// pre-bitset way — an explicit primary-list scan into a fresh matcher —
// via GraphSignature: the word-driven target iteration must visit targets
// and edges in exactly the order the primary scan does, not merely reach
// the same verdict.
func TestDifferentialFeasibleWordsMatchesFaultSet(t *testing.T) {
	for _, d := range layout.AllDesigns() {
		arr, err := layout.BuildWithPrimaryTarget(d, 60)
		if err != nil {
			t.Fatal(err)
		}
		sessA, err := NewSession(arr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sessB, err := NewSession(arr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		spareSlot := make(map[layout.CellID]int)
		for slot, id := range arr.Spares() {
			spareSlot[id] = slot
		}
		var fs *defects.FaultSet
		for seed := int64(0); seed < 10; seed++ {
			in := defects.NewInjector(seed)
			fs = in.Bernoulli(arr, 0.85, fs)
			if fs.Count() == 0 {
				continue
			}
			okA, err := sessA.Feasible(fs)
			if err != nil {
				t.Fatal(err)
			}
			okB, err := sessB.FeasibleWords(fs.Words())
			if err != nil {
				t.Fatal(err)
			}
			if okA != okB {
				t.Fatalf("%s seed %d: Feasible=%v, FeasibleWords=%v", d.Name, seed, okA, okB)
			}
			if sessA.GraphSignature() != sessB.GraphSignature() {
				t.Fatalf("%s seed %d: repair graphs differ between entry points", d.Name, seed)
			}
			// Reference construction: the primary-list scan the session used
			// before targets became a bitset.
			ref := matching.NewMatcher(arr.NumPrimary(), arr.NumSpare(), 0)
			ref.Reset(arr.NumSpare())
			aborted := false
			for _, id := range arr.Primaries() {
				if !fs.IsFaulty(id) {
					continue
				}
				for _, sp := range arr.SpareNeighbors(id) {
					if !fs.IsFaulty(sp) {
						ref.AddEdge(spareSlot[sp])
					}
				}
				if ref.EndLeft() == 0 {
					aborted = true
					break
				}
			}
			// The session stops feeding the matcher at the first degree-zero
			// target, so only compare full builds.
			if !aborted && sessA.GraphSignature() != ref.GraphSignature() {
				t.Fatalf("%s seed %d: word-driven graph differs from primary-scan reference",
					d.Name, seed)
			}
		}
	}
}

// TestSessionRepairUsedScope checks scope handling: under RepairUsed an
// unused faulty primary is tolerated, and the session verdict matches the
// reference path with the same mask.
func TestSessionRepairUsedScope(t *testing.T) {
	arr, err := layout.BuildWithPrimaryTarget(layout.DTMB26(), 40)
	if err != nil {
		t.Fatal(err)
	}
	used := make([]bool, arr.NumCells())
	for i, id := range arr.Primaries() {
		used[id] = i%2 == 0 // half the primaries are in active use
	}
	opts := Options{Scope: RepairUsed, Used: used}
	sess, err := NewSession(arr, opts)
	if err != nil {
		t.Fatal(err)
	}
	var fs *defects.FaultSet
	for seed := int64(0); seed < 30; seed++ {
		in := defects.NewInjector(seed)
		fs = in.Bernoulli(arr, 0.85, fs)
		got, err := sess.Feasible(fs)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := LocalReconfigure(arr, fs, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got != plan.OK {
			t.Fatalf("seed %d: Feasible=%v, LocalReconfigure.OK=%v", seed, got, plan.OK)
		}
	}
}

// TestSessionErrors pins the constructor and query validation.
func TestSessionErrors(t *testing.T) {
	if _, err := NewSession(nil, Options{}); err == nil {
		t.Fatal("NewSession(nil) succeeded")
	}
	arr, err := layout.BuildWithPrimaryTarget(layout.DTMB16(), 24)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSession(arr, Options{Scope: RepairUsed}); err == nil {
		t.Fatal("NewSession with RepairUsed and no mask succeeded")
	}
	sess, err := NewSession(arr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Feasible(nil); err == nil {
		t.Fatal("Feasible(nil) succeeded")
	}
	if _, err := sess.Feasible(defects.NewFaultSet(arr.NumCells() + 1)); err == nil {
		t.Fatal("Feasible with mismatched fault set succeeded")
	}
	if sess.Array() != arr {
		t.Fatal("Array() does not return the bound array")
	}
}

// TestSessionAllHealthyFastPath checks the degenerate no-fault path.
func TestSessionAllHealthyFastPath(t *testing.T) {
	arr, err := layout.BuildWithPrimaryTarget(layout.DTMB26(), 30)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(arr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := sess.Feasible(defects.NewFaultSet(arr.NumCells()))
	if err != nil || !ok {
		t.Fatalf("all-healthy Feasible = (%v, %v), want (true, nil)", ok, err)
	}
	// Faulty spares only: nothing to repair, still feasible.
	fs := defects.NewFaultSet(arr.NumCells())
	for _, id := range arr.Spares() {
		fs.MarkFaulty(id)
	}
	ok, err = sess.Feasible(fs)
	if err != nil || !ok {
		t.Fatalf("spares-only Feasible = (%v, %v), want (true, nil)", ok, err)
	}
}

// TestSessionFeasibleZeroAllocs pins the steady-state feasibility query to
// zero allocations, the property the Monte-Carlo kernel depends on.
func TestSessionFeasibleZeroAllocs(t *testing.T) {
	arr, err := layout.BuildHexagonWithPrimaryTarget(layout.DTMB26(), 100)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(arr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := defects.NewInjector(1)
	var fs *defects.FaultSet
	fs = in.Bernoulli(arr, 0.95, fs)
	for i := 0; i < 32; i++ { // warm the scratch
		fs = in.Bernoulli(arr, 0.95, fs)
		if _, err := sess.Feasible(fs); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		fs = in.Bernoulli(arr, 0.95, fs)
		if _, err := sess.Feasible(fs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Feasible allocates %.1f times per run, want 0", allocs)
	}
}
