package reconfig

import (
	"math/rand"
	"testing"

	"dmfb/internal/defects"
	"dmfb/internal/layout"
	"dmfb/internal/matching"
)

func buildArray(t testing.TB, d layout.Design, n int) *layout.Array {
	t.Helper()
	arr, err := layout.BuildWithPrimaryTarget(d, n)
	if err != nil {
		t.Fatal(err)
	}
	return arr
}

// kuhnPlan is the independent reference for LocalReconfigure and the
// Session: it shares neither their builder nor their solver. Targets come
// from a primary-list scan, spares are numbered by first appearance in a
// map, and the matching.Graph is solved with Kuhn's algorithm. It fills in
// OK, Assignments and Unmatched; a maximum matching is not unique, so only
// the verdict and the number of repairs must agree.
func kuhnPlan(t testing.TB, arr *layout.Array, fs *defects.FaultSet, opts Options) Plan {
	t.Helper()
	var targets []layout.CellID
	for _, id := range arr.Primaries() {
		if fs.IsFaulty(id) && (opts.Scope != RepairUsed || opts.Used[id]) {
			targets = append(targets, id)
		}
	}
	spareIdx := make(map[layout.CellID]int)
	var spareIDs []layout.CellID
	var edges [][2]int
	for ti, tgt := range targets {
		for _, sp := range arr.SpareNeighbors(tgt) {
			if fs.IsFaulty(sp) {
				continue
			}
			si, ok := spareIdx[sp]
			if !ok {
				si = len(spareIDs)
				spareIdx[sp] = si
				spareIDs = append(spareIDs, sp)
			}
			edges = append(edges, [2]int{ti, si})
		}
	}
	g := matching.NewGraph(len(targets), len(spareIDs))
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	res := g.Kuhn()
	plan := Plan{OK: res.SaturatesA()}
	for ti, si := range res.MatchA {
		if si == matching.Unmatched {
			plan.Unmatched = append(plan.Unmatched, targets[ti])
			continue
		}
		plan.Assignments = append(plan.Assignments, Assignment{Faulty: targets[ti], Spare: spareIDs[si]})
	}
	return plan
}

func TestNoFaultsTrivialPlan(t *testing.T) {
	arr := buildArray(t, layout.DTMB26(), 60)
	fs := defects.NewFaultSet(arr.NumCells())
	plan, err := LocalReconfigure(arr, fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.OK || len(plan.Assignments) != 0 {
		t.Errorf("empty fault set: plan %+v", plan)
	}
	if err := VerifyComplete(arr, fs, plan); err != nil {
		t.Error(err)
	}
}

func TestSingleFaultRepaired(t *testing.T) {
	arr := buildArray(t, layout.DTMB16(), 60)
	// Pick an interior primary so it surely has its spare.
	var target layout.CellID = -1
	for _, id := range arr.Primaries() {
		if arr.IsInterior(id) {
			target = id
			break
		}
	}
	if target < 0 {
		t.Fatal("no interior primary found")
	}
	fs := defects.NewFaultSet(arr.NumCells())
	fs.MarkFaulty(target)
	plan, err := LocalReconfigure(arr, fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.OK || len(plan.Assignments) != 1 {
		t.Fatalf("plan %+v", plan)
	}
	if plan.Assignments[0].Faulty != target {
		t.Error("wrong cell repaired")
	}
	if plan.CellsRemapped() != 1 {
		t.Error("local reconfiguration must remap exactly one cell per fault")
	}
	if err := VerifyComplete(arr, fs, plan); err != nil {
		t.Error(err)
	}
}

func TestFaultySpareBlocksItsOnlyPrimary(t *testing.T) {
	// In DTMB(1,6) each primary has exactly one spare: failing both the
	// primary and its spare makes reconfiguration infeasible.
	arr := buildArray(t, layout.DTMB16(), 60)
	var prim, spare layout.CellID = -1, -1
	for _, id := range arr.Primaries() {
		if arr.IsInterior(id) && len(arr.SpareNeighbors(id)) == 1 {
			prim = id
			spare = arr.SpareNeighbors(id)[0]
			break
		}
	}
	if prim < 0 {
		t.Fatal("no suitable primary")
	}
	fs := defects.NewFaultSet(arr.NumCells())
	fs.MarkFaulty(prim)
	fs.MarkFaulty(spare)
	plan, err := LocalReconfigure(arr, fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.OK {
		t.Fatal("reconfiguration should fail when the only spare is dead")
	}
	if len(plan.Unmatched) != 1 || plan.Unmatched[0] != prim {
		t.Errorf("Unmatched = %v", plan.Unmatched)
	}
	if len(plan.HallWitness) == 0 {
		t.Error("expected a Hall-violation witness")
	}
	if plan.FaultySpares != 1 || plan.FaultyPrimaries != 1 {
		t.Errorf("fault counts %d/%d", plan.FaultyPrimaries, plan.FaultySpares)
	}
}

func TestSevenClusterFaultsExceedOneSpare(t *testing.T) {
	// Two faulty primaries sharing their single spare in DTMB(1,6): only one
	// can be repaired.
	arr := buildArray(t, layout.DTMB16(), 120)
	var spare layout.CellID = -1
	for _, id := range arr.Spares() {
		if arr.IsInterior(id) {
			spare = id
			break
		}
	}
	if spare < 0 {
		t.Fatal("no interior spare")
	}
	prims := arr.PrimaryNeighbors(spare)
	if len(prims) != 6 {
		t.Fatalf("interior spare has %d primaries", len(prims))
	}
	fs := defects.NewFaultSet(arr.NumCells())
	fs.MarkFaulty(prims[0])
	fs.MarkFaulty(prims[1])
	plan, err := LocalReconfigure(arr, fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.OK {
		t.Fatal("two faults on one spare cluster must be irreparable in DTMB(1,6)")
	}
	if len(plan.Assignments) != 1 {
		t.Errorf("expected exactly one repair, got %d", len(plan.Assignments))
	}
	if err := Verify(arr, fs, plan); err != nil {
		t.Error(err)
	}
}

func TestDTMB26ToleratesSharedSpare(t *testing.T) {
	// With s=2, two faulty primaries sharing one spare can still both be
	// repaired via their second spares.
	arr := buildArray(t, layout.DTMB26(), 120)
	var spare layout.CellID = -1
	for _, id := range arr.Spares() {
		if arr.IsInterior(id) {
			spare = id
			break
		}
	}
	prims := arr.PrimaryNeighbors(spare)
	interior := prims[:0:0]
	for _, p := range prims {
		if arr.IsInterior(p) {
			interior = append(interior, p)
		}
	}
	if len(interior) < 2 {
		t.Fatal("need two interior primaries on one spare")
	}
	fs := defects.NewFaultSet(arr.NumCells())
	fs.MarkFaulty(interior[0])
	fs.MarkFaulty(interior[1])
	plan, err := LocalReconfigure(arr, fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.OK {
		t.Fatalf("DTMB(2,6) should tolerate two faults on a shared spare: %+v", plan)
	}
	if err := VerifyComplete(arr, fs, plan); err != nil {
		t.Error(err)
	}
}

func TestRepairUsedScopeIgnoresIdleFaults(t *testing.T) {
	arr := buildArray(t, layout.DTMB16(), 60)
	// Fail a primary and its only spare, but mark the primary as unused:
	// RepairUsed should succeed, RepairAll should fail.
	var prim layout.CellID = -1
	for _, id := range arr.Primaries() {
		if arr.IsInterior(id) {
			prim = id
			break
		}
	}
	spare := arr.SpareNeighbors(prim)[0]
	fs := defects.NewFaultSet(arr.NumCells())
	fs.MarkFaulty(prim)
	fs.MarkFaulty(spare)

	all, err := LocalReconfigure(arr, fs, Options{Scope: RepairAll})
	if err != nil {
		t.Fatal(err)
	}
	if all.OK {
		t.Fatal("RepairAll should fail")
	}

	used := make([]bool, arr.NumCells()) // nothing used
	scoped, err := LocalReconfigure(arr, fs, Options{Scope: RepairUsed, Used: used})
	if err != nil {
		t.Fatal(err)
	}
	if !scoped.OK || len(scoped.Assignments) != 0 {
		t.Errorf("RepairUsed with idle fault: %+v", scoped)
	}

	used[prim] = true
	scoped, err = LocalReconfigure(arr, fs, Options{Scope: RepairUsed, Used: used})
	if err != nil {
		t.Fatal(err)
	}
	if scoped.OK {
		t.Error("RepairUsed must fail when the used cell is irreparable")
	}
}

func TestOptionsValidation(t *testing.T) {
	arr := buildArray(t, layout.DTMB26(), 30)
	fs := defects.NewFaultSet(arr.NumCells())
	if _, err := LocalReconfigure(arr, nil, Options{}); err == nil {
		t.Error("nil fault set accepted")
	}
	if _, err := LocalReconfigure(arr, defects.NewFaultSet(3), Options{}); err == nil {
		t.Error("mismatched fault set accepted")
	}
	if _, err := LocalReconfigure(arr, fs, Options{Scope: RepairUsed}); err == nil {
		t.Error("RepairUsed without mask accepted")
	}
	if _, err := LocalReconfigure(nil, fs, Options{}); err == nil {
		t.Error("nil array accepted")
	}
}

func TestScopeString(t *testing.T) {
	if RepairAll.String() != "repair-all" || RepairUsed.String() != "repair-used" {
		t.Error("Scope.String wrong")
	}
}

func TestKuhnAgreesWithHopcroftKarp(t *testing.T) {
	arr := buildArray(t, layout.DTMB36(), 150)
	rng := rand.New(rand.NewSource(17))
	in := defects.NewInjector(17)
	var fs *defects.FaultSet
	for trial := 0; trial < 200; trial++ {
		p := 0.7 + 0.3*rng.Float64()
		fs = in.Bernoulli(arr, p, fs)
		hk, err := LocalReconfigure(arr, fs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		kuhn := kuhnPlan(t, arr, fs, Options{})
		if hk.OK != kuhn.OK || len(hk.Assignments) != len(kuhn.Assignments) {
			t.Fatalf("trial %d: HK %v/%d vs Kuhn %v/%d", trial,
				hk.OK, len(hk.Assignments), kuhn.OK, len(kuhn.Assignments))
		}
	}
}

func TestPlansAlwaysVerifyOnRandomFaults(t *testing.T) {
	designs := []layout.Design{layout.DTMB16(), layout.DTMB26(), layout.DTMB26Alt(), layout.DTMB36(), layout.DTMB44()}
	in := defects.NewInjector(99)
	infeasible := 0
	for _, d := range designs {
		arr := buildArray(t, d, 100)
		var fs *defects.FaultSet
		for _, p := range []float64{0.9, 0.7} {
			for trial := 0; trial < 100; trial++ {
				fs = in.Bernoulli(arr, p, fs)
				plan, err := LocalReconfigure(arr, fs, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if err := VerifyComplete(arr, fs, plan); err != nil {
					t.Fatalf("%s p=%v trial %d: %v", d.Name, p, trial, err)
				}
				// Success must coincide with every faulty primary repaired.
				faulty := len(fs.FaultyPrimaries(arr))
				if plan.OK != (len(plan.Assignments) == faulty) {
					t.Fatalf("%s p=%v trial %d: OK=%v with %d/%d repairs",
						d.Name, p, trial, plan.OK, len(plan.Assignments), faulty)
				}
				if !plan.OK {
					infeasible++
					checkHallWitness(t, arr, fs, plan.HallWitness)
				}
			}
		}
	}
	if infeasible == 0 {
		t.Fatal("no infeasible plan drawn; the Hall witness went unchecked")
	}
}

// checkHallWitness certifies a Hall witness: every cell is a faulty
// primary, and the witness's healthy adjacent spares are fewer than its
// cells, so no reconfiguration can repair them all.
func checkHallWitness(t *testing.T, arr *layout.Array, fs *defects.FaultSet, witness []layout.CellID) {
	t.Helper()
	healthy := make(map[layout.CellID]bool)
	for _, id := range witness {
		if arr.Cell(id).Role != layout.Primary || !fs.IsFaulty(id) {
			t.Fatalf("witness cell %d is not a faulty primary", id)
		}
		for _, sp := range arr.SpareNeighbors(id) {
			if !fs.IsFaulty(sp) {
				healthy[sp] = true
			}
		}
	}
	if len(healthy) >= len(witness) {
		t.Fatalf("witness of %d cells has %d healthy adjacent spares, not a Hall violation",
			len(witness), len(healthy))
	}
}

func TestRemovingFaultPreservesSuccess(t *testing.T) {
	// Monotonicity: if a fault set is repairable, any subset is repairable.
	arr := buildArray(t, layout.DTMB26(), 100)
	in := defects.NewInjector(123)
	var fs *defects.FaultSet
	for trial := 0; trial < 60; trial++ {
		fs = in.Bernoulli(arr, 0.92, fs)
		plan, err := LocalReconfigure(arr, fs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !plan.OK {
			continue
		}
		faulty := fs.FaultyCells()
		if len(faulty) == 0 {
			continue
		}
		// Drop one fault and re-check.
		sub := defects.NewFaultSet(arr.NumCells())
		for i, id := range faulty {
			if i == trial%len(faulty) {
				continue
			}
			sub.MarkFaulty(id)
		}
		subPlan, err := LocalReconfigure(arr, sub, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !subPlan.OK {
			t.Fatalf("trial %d: subset of repairable faults became irreparable", trial)
		}
	}
}

func TestHigherRedundancyNeverHurts(t *testing.T) {
	// For identical fault realizations (by cell position), DTMB(3,6) has
	// spare supersets of DTMB(1,6)... not literally, but statistically the
	// success rate must be weakly increasing in redundancy. Cheap check:
	// count successes over a fixed batch.
	in := defects.NewInjector(2025)
	rates := map[string]int{}
	for _, d := range []layout.Design{layout.DTMB16(), layout.DTMB26(), layout.DTMB36(), layout.DTMB44()} {
		arr := buildArray(t, d, 100)
		inj := defects.NewInjector(55) // same stream per design
		var fs *defects.FaultSet
		ok := 0
		for trial := 0; trial < 300; trial++ {
			fs = inj.Bernoulli(arr, 0.95, fs)
			plan, err := LocalReconfigure(arr, fs, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if plan.OK {
				ok++
			}
		}
		rates[d.Name] = ok
	}
	_ = in
	if rates["DTMB(2,6)"] < rates["DTMB(1,6)"]-20 {
		t.Errorf("DTMB(2,6) (%d) far below DTMB(1,6) (%d)", rates["DTMB(2,6)"], rates["DTMB(1,6)"])
	}
	if rates["DTMB(4,4)"] < rates["DTMB(2,6)"]-20 {
		t.Errorf("DTMB(4,4) (%d) far below DTMB(2,6) (%d)", rates["DTMB(4,4)"], rates["DTMB(2,6)"])
	}
}

func TestVerifyRejectsCorruptPlans(t *testing.T) {
	arr := buildArray(t, layout.DTMB26(), 60)
	var prim layout.CellID = -1
	for _, id := range arr.Primaries() {
		if arr.IsInterior(id) {
			prim = id
			break
		}
	}
	spare := arr.SpareNeighbors(prim)[0]
	fs := defects.NewFaultSet(arr.NumCells())
	fs.MarkFaulty(prim)

	// Healthy cell "repaired".
	bad := Plan{OK: true, Assignments: []Assignment{{Faulty: arr.Primaries()[1], Spare: spare}}}
	if arr.Primaries()[1] != prim {
		if err := Verify(arr, fs, bad); err == nil {
			t.Error("repairing healthy cell accepted")
		}
	}

	// Faulty spare used.
	fs2 := defects.NewFaultSet(arr.NumCells())
	fs2.MarkFaulty(prim)
	fs2.MarkFaulty(spare)
	bad2 := Plan{OK: true, Assignments: []Assignment{{Faulty: prim, Spare: spare}}}
	if err := Verify(arr, fs2, bad2); err == nil {
		t.Error("faulty spare accepted")
	}

	// Non-adjacent spare.
	var farSpare layout.CellID = -1
	for _, s := range arr.Spares() {
		adjacent := false
		for _, nb := range arr.SpareNeighbors(prim) {
			if nb == s {
				adjacent = true
				break
			}
		}
		if !adjacent {
			farSpare = s
			break
		}
	}
	if farSpare >= 0 {
		bad3 := Plan{OK: true, Assignments: []Assignment{{Faulty: prim, Spare: farSpare}}}
		if err := Verify(arr, fs, bad3); err == nil {
			t.Error("non-adjacent spare accepted")
		}
	}

	// Spare reused for two faults.
	prim2 := layout.CellID(-1)
	for _, p := range arr.PrimaryNeighbors(spare) {
		if p != prim {
			prim2 = p
			break
		}
	}
	if prim2 >= 0 {
		fs3 := defects.NewFaultSet(arr.NumCells())
		fs3.MarkFaulty(prim)
		fs3.MarkFaulty(prim2)
		bad4 := Plan{OK: true, Assignments: []Assignment{
			{Faulty: prim, Spare: spare}, {Faulty: prim2, Spare: spare},
		}}
		if err := Verify(arr, fs3, bad4); err == nil {
			t.Error("spare reuse accepted")
		}
	}

	// OK plan with unrepaired faulty primary.
	incomplete := Plan{OK: true}
	if err := VerifyComplete(arr, fs, incomplete); err == nil {
		t.Error("incomplete OK plan accepted")
	}
}

func BenchmarkLocalReconfigure35Faults(b *testing.B) {
	arr, err := layout.BuildWithPrimaryTarget(layout.DTMB26(), 252)
	if err != nil {
		b.Fatal(err)
	}
	in := defects.NewInjector(1)
	var fs *defects.FaultSet
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs, err = in.FixedCount(arr, 35, defects.AllCells, fs)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := LocalReconfigure(arr, fs, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
