package layout

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"dmfb/internal/hexgrid"
)

func TestTable1RedundancyRatios(t *testing.T) {
	// Paper Table 1: RR for the four canonical designs.
	want := map[string]float64{
		"DTMB(1,6)": 1.0 / 6.0,
		"DTMB(2,6)": 1.0 / 3.0,
		"DTMB(3,6)": 0.5,
		"DTMB(4,4)": 1.0,
	}
	for _, d := range AllDesigns() {
		if w, ok := want[d.Name]; !ok || math.Abs(d.RR()-w) > 1e-12 {
			t.Errorf("%s: RR() = %.4f, want %.4f", d.Name, d.RR(), w)
		}
	}
	if alt := DTMB26Alt(); math.Abs(alt.RR()-1.0/3.0) > 1e-12 {
		t.Errorf("DTMB(2,6)alt RR = %.4f, want 1/3", alt.RR())
	}
}

func TestDesignByName(t *testing.T) {
	for _, name := range []string{"DTMB(1,6)", "DTMB(2,6)", "DTMB(2,6)alt", "DTMB(3,6)", "DTMB(4,4)"} {
		d, err := DesignByName(name)
		if err != nil {
			t.Errorf("DesignByName(%q): %v", name, err)
		}
		if d.Name != name {
			t.Errorf("DesignByName(%q) returned %q", name, d.Name)
		}
	}
	if _, err := DesignByName("DTMB(9,9)"); err == nil {
		t.Error("unknown design should error")
	}
}

// allDesignsWithAlt returns the five concrete designs under test.
func allDesignsWithAlt() []Design {
	return append(AllDesigns(), DTMB26Alt())
}

func TestInteriorSignatureExactOnAllDesigns(t *testing.T) {
	// Definition 1: every non-boundary primary sees exactly s spares, every
	// non-boundary spare sees exactly p primaries. Checked on a region large
	// enough to have many interior cells.
	for _, d := range allDesignsWithAlt() {
		arr, err := BuildParallelogram(d, 30, 30)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		st := arr.Signature()
		if st.InteriorPrimaries == 0 || st.InteriorSpares == 0 {
			t.Fatalf("%s: degenerate interior (%d primaries, %d spares)",
				d.Name, st.InteriorPrimaries, st.InteriorSpares)
		}
		if st.MatchingPrimaries != st.InteriorPrimaries {
			t.Errorf("%s: %d/%d interior primaries have s=%d spare neighbors",
				d.Name, st.MatchingPrimaries, st.InteriorPrimaries, d.S)
		}
		if st.MatchingSpares != st.InteriorSpares {
			t.Errorf("%s: %d/%d interior spares have p=%d primary neighbors",
				d.Name, st.MatchingSpares, st.InteriorSpares, d.P)
		}
		if err := arr.Validate(); err != nil {
			t.Errorf("%s: Validate: %v", d.Name, err)
		}
	}
}

func TestSparesAreNeverAdjacent(t *testing.T) {
	// Interstitial redundancy requires spares isolated from each other
	// (except DTMB(4,4), whose spares form rows and touch along rows — the
	// design trades that for RR=1; the paper's Fig. 6 shows spare rows).
	for _, d := range []Design{DTMB16(), DTMB26(), DTMB26Alt(), DTMB36()} {
		arr, err := BuildParallelogram(d, 20, 20)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		for _, s := range arr.Spares() {
			for _, nb := range arr.Neighbors(s) {
				if arr.Cell(nb).Role == Spare {
					t.Fatalf("%s: spares %v and %v adjacent",
						d.Name, arr.Cell(s).Pos, arr.Cell(nb).Pos)
				}
			}
		}
	}
}

func TestDTMB44SpareRows(t *testing.T) {
	// DTMB(4,4) places spares in alternating rows: spare neighbors of a
	// spare are the two same-row cells; its four other-row neighbors are
	// primary. Validate() intentionally rejects this design's spare-spare
	// adjacency only via the signature, so check the row structure directly.
	arr, err := BuildParallelogram(DTMB44(), 20, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range arr.Spares() {
		if arr.Cell(s).Pos.R%2 != 0 {
			t.Fatalf("spare at odd row %v", arr.Cell(s).Pos)
		}
	}
	for _, p := range arr.Primaries() {
		if mod := arr.Cell(p).Pos.R % 2; mod == 0 {
			t.Fatalf("primary on spare row %v", arr.Cell(p).Pos)
		}
	}
	st := arr.Signature()
	if st.MatchingPrimaries != st.InteriorPrimaries || st.MatchingSpares != st.InteriorSpares {
		t.Errorf("DTMB(4,4) signature violated: %+v", st)
	}
}

func TestRedundancyRatioConvergesToTable1(t *testing.T) {
	// Definition 2: RR ≈ s/p for large arrays.
	for _, d := range allDesignsWithAlt() {
		arr, err := BuildParallelogram(d, 84, 84) // multiple of 2,3,7 lattice periods
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		got := arr.RedundancyRatio()
		want := d.RR()
		if math.Abs(got-want) > 0.02 {
			t.Errorf("%s: finite RR %.4f, asymptotic %.4f", d.Name, got, want)
		}
	}
}

func TestSpareDensityMatchesLatticeIndex(t *testing.T) {
	// The fraction of spare sites must equal s/(s+p): 1/7, 1/4, 1/3, 1/2.
	want := map[string]float64{
		"DTMB(1,6)":    1.0 / 7.0,
		"DTMB(2,6)":    0.25,
		"DTMB(2,6)alt": 0.25,
		"DTMB(3,6)":    1.0 / 3.0,
		"DTMB(4,4)":    0.5,
	}
	for _, d := range allDesignsWithAlt() {
		arr, err := BuildParallelogram(d, 84, 84)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		got := float64(arr.NumSpare()) / float64(arr.NumCells())
		if math.Abs(got-want[d.Name]) > 1e-3 {
			t.Errorf("%s: spare density %.4f, want %.4f", d.Name, got, want[d.Name])
		}
	}
}

func TestMembershipRulesArePeriodic(t *testing.T) {
	// Shifting by the sublattice basis must preserve spare membership.
	bases := map[string][2]hexgrid.Axial{
		"DTMB(1,6)":    {{Q: 3, R: -1}, {Q: 1, R: 2}},
		"DTMB(2,6)":    {{Q: 2, R: 0}, {Q: 0, R: 2}},
		"DTMB(2,6)alt": {{Q: 2, R: 0}, {Q: 1, R: 2}},
		"DTMB(3,6)":    {{Q: 2, R: -1}, {Q: 1, R: 1}},
		"DTMB(4,4)":    {{Q: 1, R: 0}, {Q: 0, R: 2}},
	}
	rng := rand.New(rand.NewSource(11))
	for _, d := range allDesignsWithAlt() {
		basis := bases[d.Name]
		for trial := 0; trial < 500; trial++ {
			a := hexgrid.Axial{Q: rng.Intn(61) - 30, R: rng.Intn(61) - 30}
			for _, v := range basis {
				if d.IsSpare(a) != d.IsSpare(a.Add(v)) {
					t.Fatalf("%s: membership not periodic under %v at %v", d.Name, v, a)
				}
			}
		}
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(Design{Name: "broken"}, hexgrid.Hexagon(2)); err == nil {
		t.Error("design without rule should fail")
	}
	if _, err := Build(DTMB16(), nil); err == nil {
		t.Error("nil region should fail")
	}
	if _, err := Build(DTMB16(), hexgrid.NewRegion()); err == nil {
		t.Error("empty region should fail")
	}
	if _, err := BuildParallelogram(DTMB16(), 0, 5); err == nil {
		t.Error("degenerate parallelogram should fail")
	}
	if _, err := BuildHexagon(DTMB16(), -1); err == nil {
		t.Error("negative radius should fail")
	}
	if _, err := BuildWithPrimaryTarget(DTMB16(), 0); err == nil {
		t.Error("zero primary target should fail")
	}
	if _, err := BuildHexagonWithPrimaryTarget(Design{Name: "broken"}, 10); err == nil {
		t.Error("primary target on a design without rule should fail")
	}
	// Regions too sparse for the dense position index: two far-apart cells,
	// and a long diagonal line.
	islands := hexgrid.NewRegion()
	islands.Add(hexgrid.Axial{Q: 0, R: 0})
	islands.Add(hexgrid.Axial{Q: 200, R: 200})
	if _, err := Build(DTMB16(), islands); err == nil {
		t.Error("cells at (0,0) and (200,200) should fail")
	}
	line := hexgrid.NewRegion()
	for i := 0; i < 200; i++ {
		line.Add(hexgrid.Axial{Q: i, R: i})
	}
	if _, err := Build(DTMB16(), line); err == nil {
		t.Error("a 200-cell diagonal line should fail")
	}
}

func TestBuildWithPrimaryTargetExactCounts(t *testing.T) {
	for _, d := range allDesignsWithAlt() {
		for _, n := range []int{6, 50, 100, 252} {
			arr, err := BuildWithPrimaryTarget(d, n)
			if err != nil {
				t.Fatalf("%s n=%d: %v", d.Name, n, err)
			}
			if arr.NumPrimary() != n {
				t.Errorf("%s: NumPrimary = %d, want %d", d.Name, arr.NumPrimary(), n)
			}
			if err := arr.Validate(); err != nil {
				t.Errorf("%s n=%d: %v", d.Name, n, err)
			}
		}
	}
}

func TestCellLookupRoundTrip(t *testing.T) {
	arr, err := BuildHexagon(DTMB26(), 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < arr.NumCells(); i++ {
		c := arr.Cell(CellID(i))
		if got := arr.CellAt(c.Pos); got != c.ID {
			t.Fatalf("CellAt(%v) = %d, want %d", c.Pos, got, c.ID)
		}
	}
	if arr.CellAt(hexgrid.Axial{Q: 1000, R: 1000}) != NoCell {
		t.Error("absent position should return NoCell")
	}
}

func TestNeighborListsAreMutual(t *testing.T) {
	arr, err := BuildParallelogram(DTMB36(), 12, 12)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < arr.NumCells(); i++ {
		id := CellID(i)
		for _, nb := range arr.Neighbors(id) {
			found := false
			for _, back := range arr.Neighbors(nb) {
				if back == id {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("adjacency not mutual: %d -> %d", id, nb)
			}
		}
	}
}

func TestSpareAndPrimaryNeighborPartition(t *testing.T) {
	arr, err := BuildParallelogram(DTMB26Alt(), 15, 15)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < arr.NumCells(); i++ {
		id := CellID(i)
		total := len(arr.SpareNeighbors(id)) + len(arr.PrimaryNeighbors(id))
		if total != len(arr.Neighbors(id)) {
			t.Fatalf("cell %d: spare+primary neighbors %d != total %d",
				id, total, len(arr.Neighbors(id)))
		}
		for _, s := range arr.SpareNeighbors(id) {
			if arr.Cell(s).Role != Spare {
				t.Fatalf("cell %d: non-spare in SpareNeighbors", id)
			}
		}
		for _, p := range arr.PrimaryNeighbors(id) {
			if arr.Cell(p).Role != Primary {
				t.Fatalf("cell %d: non-primary in PrimaryNeighbors", id)
			}
		}
	}
}

func TestPrimariesAndSparesPartitionCells(t *testing.T) {
	arr, err := BuildHexagon(DTMB16(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if arr.NumPrimary()+arr.NumSpare() != arr.NumCells() {
		t.Errorf("primaries %d + spares %d != cells %d",
			arr.NumPrimary(), arr.NumSpare(), arr.NumCells())
	}
	seen := map[CellID]bool{}
	for _, id := range arr.Primaries() {
		if arr.Cell(id).Role != Primary {
			t.Errorf("cell %d in Primaries has role %v", id, arr.Cell(id).Role)
		}
		seen[id] = true
	}
	for _, id := range arr.Spares() {
		if arr.Cell(id).Role != Spare {
			t.Errorf("cell %d in Spares has role %v", id, arr.Cell(id).Role)
		}
		if seen[id] {
			t.Errorf("cell %d in both partitions", id)
		}
	}
}

func TestDTMB16IsPerfectCode(t *testing.T) {
	// Every interior primary has exactly one spare neighbor, and the
	// clusters of one spare + six primaries tile the array: the distance
	// from any cell to the nearest spare site is at most 1.
	d := DTMB16()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		a := hexgrid.Axial{Q: rng.Intn(101) - 50, R: rng.Intn(101) - 50}
		if d.IsSpare(a) {
			continue
		}
		spares := 0
		for _, nb := range a.Neighbors() {
			if d.IsSpare(nb) {
				spares++
			}
		}
		if spares != 1 {
			t.Fatalf("primary %v has %d spare neighbors, want exactly 1", a, spares)
		}
	}
}

func TestBuildClusterCompleteDTMB16(t *testing.T) {
	for _, k := range []int{1, 7, 20} {
		arr, err := BuildClusterCompleteDTMB16(k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if arr.NumPrimary() != 6*k || arr.NumSpare() != k {
			t.Errorf("k=%d: %d primaries %d spares, want %d/%d",
				k, arr.NumPrimary(), arr.NumSpare(), 6*k, k)
		}
		// Every primary must own exactly one spare, every spare exactly six
		// primaries — no boundary deficit anywhere.
		for _, p := range arr.Primaries() {
			if len(arr.SpareNeighbors(p)) != 1 {
				t.Fatalf("k=%d: primary %d has %d spares", k, p, len(arr.SpareNeighbors(p)))
			}
		}
		for _, s := range arr.Spares() {
			if len(arr.PrimaryNeighbors(s)) != 6 {
				t.Fatalf("k=%d: spare %d has %d primaries", k, s, len(arr.PrimaryNeighbors(s)))
			}
		}
		if err := arr.Validate(); err != nil {
			t.Errorf("k=%d: %v", k, err)
		}
	}
	if _, err := BuildClusterCompleteDTMB16(0); err == nil {
		t.Error("zero clusters should fail")
	}
}

func TestRegionRoundTrip(t *testing.T) {
	orig := hexgrid.Hexagon(4)
	arr, err := Build(DTMB36(), orig)
	if err != nil {
		t.Fatal(err)
	}
	back := arr.Region()
	if back.Len() != orig.Len() {
		t.Fatalf("region round trip: %d != %d", back.Len(), orig.Len())
	}
	for _, c := range orig.Cells() {
		if !back.Contains(c) {
			t.Fatalf("cell %v lost in round trip", c)
		}
	}
}

func TestStringMentionsDesignAndCounts(t *testing.T) {
	arr, err := BuildParallelogram(DTMB26(), 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	s := arr.String()
	if !strings.Contains(s, "DTMB(2,6)") || !strings.Contains(s, "spare") {
		t.Errorf("String() = %q lacks design name or counts", s)
	}
}

func TestRoleString(t *testing.T) {
	if Primary.String() != "primary" || Spare.String() != "spare" {
		t.Error("Role.String wrong")
	}
}

func BenchmarkBuildParallelogram30(b *testing.B) {
	d := DTMB26()
	for i := 0; i < b.N; i++ {
		if _, err := BuildParallelogram(d, 30, 30); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCellAtGridMatchesIndex pins the dense CellAt grid to the construction
// map over every design and footprint shape: hits resolve to the same ID,
// and positions off the array (inside and outside the bounding box alike)
// return NoCell. CellAt is the clustered-injection hot path, so this is the
// lookup the defect model's determinism rests on.
func TestCellAtGridMatchesIndex(t *testing.T) {
	arrs := make([]*Array, 0, 8)
	for _, d := range AllDesignsWithVariants() {
		arr, err := BuildWithPrimaryTarget(d, 60)
		if err != nil {
			t.Fatal(err)
		}
		arrs = append(arrs, arr)
	}
	hexArr, err := BuildHexagonWithPrimaryTarget(DTMB26(), 60)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := BuildClusterCompleteDTMB16(9)
	if err != nil {
		t.Fatal(err)
	}
	arrs = append(arrs, hexArr, cluster)
	for _, arr := range arrs {
		byPos := make(map[hexgrid.Axial]CellID, arr.NumCells())
		minQ, maxQ := 0, 0
		minR, maxR := 0, 0
		for i := 0; i < arr.NumCells(); i++ {
			c := arr.Cell(CellID(i))
			byPos[c.Pos] = c.ID
			if c.Pos.Q < minQ {
				minQ = c.Pos.Q
			}
			if c.Pos.Q > maxQ {
				maxQ = c.Pos.Q
			}
			if c.Pos.R < minR {
				minR = c.Pos.R
			}
			if c.Pos.R > maxR {
				maxR = c.Pos.R
			}
		}
		// Scan a margin beyond the bounding box so both the in-box miss and
		// the out-of-box early return are exercised.
		for q := minQ - 3; q <= maxQ+3; q++ {
			for r := minR - 3; r <= maxR+3; r++ {
				pos := hexgrid.Axial{Q: q, R: r}
				want, ok := byPos[pos]
				if !ok {
					want = NoCell
				}
				if got := arr.CellAt(pos); got != want {
					t.Fatalf("%s: CellAt(%v) = %d, want %d", arr, pos, got, want)
				}
			}
		}
	}
}
