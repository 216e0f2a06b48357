package sqgrid

import "testing"

func TestCoordNeighbors4AreDistinctUnitSteps(t *testing.T) {
	c := Coord{3, 4}
	seen := map[Coord]bool{}
	for _, n := range c.Neighbors4() {
		dx, dy := n.X-c.X, n.Y-c.Y
		if dx*dx+dy*dy != 1 {
			t.Errorf("neighbor %v is not one step from %v", n, c)
		}
		seen[n] = true
	}
	if len(seen) != 4 {
		t.Errorf("Neighbors4 returned %d distinct cells, want 4", len(seen))
	}
}

func TestGridContainsAndIndex(t *testing.T) {
	g := Grid{W: 5, H: 3}
	if g.NumCells() != 15 {
		t.Error("NumCells wrong")
	}
	if !g.Contains(Coord{4, 2}) || g.Contains(Coord{5, 0}) || g.Contains(Coord{0, -1}) {
		t.Error("Contains wrong")
	}
	if g.Index(Coord{5, 0}) != -1 {
		t.Error("off-grid index should be -1")
	}
	for i := 0; i < g.NumCells(); i++ {
		if g.Index(g.CoordOf(i)) != i {
			t.Fatalf("index round trip failed at %d", i)
		}
	}
}

func TestModuleCellsContains(t *testing.T) {
	m := Module{Name: "mixer", X: 2, Y: 1, W: 3, H: 2}
	cells := m.Cells()
	if len(cells) != 6 {
		t.Fatalf("Cells returned %d", len(cells))
	}
	for _, c := range cells {
		if !m.Contains(c) {
			t.Errorf("module does not contain own cell %v", c)
		}
	}
	if m.Contains(Coord{1, 1}) || m.Contains(Coord{2, 3}) {
		t.Error("Contains accepts outside cells")
	}
}

func TestModuleOverlaps(t *testing.T) {
	a := Module{X: 0, Y: 0, W: 3, H: 3}
	cases := []struct {
		b    Module
		want bool
	}{
		{Module{X: 2, Y: 2, W: 2, H: 2}, true},
		{Module{X: 3, Y: 0, W: 2, H: 2}, false}, // shares only an edge
		{Module{X: 0, Y: 3, W: 3, H: 1}, false},
		{Module{X: 1, Y: 1, W: 1, H: 1}, true}, // contained
	}
	for _, c := range cases {
		if a.Overlaps(c.b) != c.want {
			t.Errorf("Overlaps(%+v) = %v, want %v", c.b, !c.want, c.want)
		}
		if c.b.Overlaps(a) != c.want {
			t.Errorf("Overlaps not symmetric for %+v", c.b)
		}
	}
}

func TestPlacementValidate(t *testing.T) {
	good := Figure2Placement()
	if err := good.Validate(); err != nil {
		t.Fatalf("Figure2Placement invalid: %v", err)
	}

	bad := good.Clone()
	bad.Modules[0].Y = 7 // extends into spare row (usable rows are 0..8)
	if err := bad.Validate(); err == nil {
		t.Error("module in spare row accepted")
	}

	overlap := good.Clone()
	overlap.Modules[1].Y = 5
	if err := overlap.Validate(); err == nil {
		t.Error("overlapping modules accepted")
	}

	degenerate := good.Clone()
	degenerate.Modules[0].W = 0
	if err := degenerate.Validate(); err == nil {
		t.Error("degenerate module accepted")
	}

	if err := (Placement{Grid: Grid{0, 5}}).Validate(); err == nil {
		t.Error("degenerate grid accepted")
	}
	if err := (Placement{Grid: Grid{5, 5}, SpareRows: 5}).Validate(); err == nil {
		t.Error("all-spare grid accepted")
	}
}

func TestModuleAt(t *testing.T) {
	p := Figure2Placement()
	if i := p.ModuleAt(Coord{1, 6}); i != 0 {
		t.Errorf("ModuleAt(1,6) = %d, want 0 (Module 1)", i)
	}
	if i := p.ModuleAt(Coord{3, 1}); i != 2 {
		t.Errorf("ModuleAt(3,1) = %d, want 2 (Module 3)", i)
	}
	if i := p.ModuleAt(Coord{0, 0}); i != -1 {
		t.Errorf("ModuleAt(0,0) = %d, want -1", i)
	}
	if i := p.ModuleAt(Coord{4, 9}); i != -1 {
		t.Errorf("spare row should be unoccupied, got module %d", i)
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := Figure2Placement()
	c := p.Clone()
	c.Modules[0].Name = "changed"
	if p.Modules[0].Name == "changed" {
		t.Error("Clone shares module storage")
	}
}

func TestUsedCells(t *testing.T) {
	p := Placement{
		Grid:    Grid{W: 4, H: 4},
		Modules: []Module{{Name: "a", X: 0, Y: 0, W: 2, H: 2}, {Name: "b", X: 2, Y: 2, W: 2, H: 1}},
	}
	used := p.UsedCells()
	if len(used) != 6 {
		t.Fatalf("UsedCells = %v", used)
	}
	// Sorted row-major.
	for i := 1; i < len(used); i++ {
		a, b := used[i-1], used[i]
		if a.Y > b.Y || (a.Y == b.Y && a.X >= b.X) {
			t.Errorf("UsedCells not sorted: %v before %v", a, b)
		}
	}
}

func TestFigure2PlacementStructure(t *testing.T) {
	p := Figure2Placement()
	if len(p.Modules) != 3 || p.SpareRows != 1 {
		t.Fatal("Figure 2 placement must have 3 modules above one spare row")
	}
	// Module 1 must sit directly above the spare row, Module 3 at the top.
	m1, m3 := p.Modules[0], p.Modules[2]
	if m1.Y+m1.H != p.Grid.H-1 {
		t.Error("Module 1 must abut the spare row")
	}
	if m3.Y != 0 {
		t.Error("Module 3 must touch the top boundary")
	}
}

func TestPlacementWithPrimaryTargetExactCounts(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16, 60, 100, 101, 240} {
		for _, rows := range []int{1, 2, 3} {
			p, err := PlacementWithPrimaryTarget(n, rows)
			if err != nil {
				t.Fatalf("n=%d rows=%d: %v", n, rows, err)
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("n=%d rows=%d: %v", n, rows, err)
			}
			if got := len(p.UsedCells()); got != n {
				t.Errorf("n=%d rows=%d: %d used cells", n, rows, got)
			}
			if p.SpareRows != rows {
				t.Errorf("n=%d: spare rows %d, want %d", n, p.SpareRows, rows)
			}
			if p.Grid.NumCells() <= n {
				t.Errorf("n=%d rows=%d: total %d must exceed n", n, rows, p.Grid.NumCells())
			}
		}
	}
}

func TestPlacementWithPrimaryTargetFullRowsTouchSpares(t *testing.T) {
	// The partial row (4 cells of width 5) must sit at the top, away from
	// the spare rows.
	p, err := PlacementWithPrimaryTarget(24, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range p.Modules {
		if m.W < p.Grid.W && m.Y != 0 {
			t.Errorf("partial module %+v not at the top", m)
		}
	}
}

func TestPlacementWithPrimaryTargetRejectsBadInputs(t *testing.T) {
	if _, err := PlacementWithPrimaryTarget(0, 1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := PlacementWithPrimaryTarget(10, 0); err == nil {
		t.Error("0 spare rows accepted")
	}
}
