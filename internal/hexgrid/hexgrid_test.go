package hexgrid

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// Generate implements quick.Generator so property tests draw coordinates from
// a bounded window rather than the full int range (which would overflow the
// distance arithmetic).
func (Axial) Generate(r *rand.Rand, size int) reflect.Value {
	const span = 1000
	return reflect.ValueOf(Axial{r.Intn(2*span+1) - span, r.Intn(2*span+1) - span})
}

func TestDirectionsAreUnitAndDistinct(t *testing.T) {
	seen := map[Axial]bool{}
	for i, d := range Directions {
		if d.Norm() != 1 {
			t.Errorf("direction %d = %v has norm %d, want 1", i, d, d.Norm())
		}
		if seen[d] {
			t.Errorf("direction %d = %v duplicated", i, d)
		}
		seen[d] = true
	}
	// Opposite directions must cancel: Directions[i] + Directions[i+3] == 0.
	for i := 0; i < 3; i++ {
		if sum := Directions[i].Add(Directions[i+3]); sum != (Axial{}) {
			t.Errorf("directions %d and %d are not opposite: sum %v", i, i+3, sum)
		}
	}
}

func TestNeighborsMatchDirections(t *testing.T) {
	a := Axial{3, -2}
	n := a.Neighbors()
	for i := range Directions {
		want := a.Add(Directions[i])
		if n[i] != want {
			t.Errorf("Neighbors()[%d] = %v, want %v", i, n[i], want)
		}
		if a.Neighbor(i) != want {
			t.Errorf("Neighbor(%d) = %v, want %v", i, a.Neighbor(i), want)
		}
	}
}

func TestDistanceKnownValues(t *testing.T) {
	cases := []struct {
		a, b Axial
		want int
	}{
		{Axial{0, 0}, Axial{0, 0}, 0},
		{Axial{0, 0}, Axial{1, 0}, 1},
		{Axial{0, 0}, Axial{1, -1}, 1},
		{Axial{0, 0}, Axial{2, 0}, 2},
		{Axial{0, 0}, Axial{1, 1}, 2},
		{Axial{0, 0}, Axial{-3, 3}, 3},
		{Axial{2, -1}, Axial{-1, 2}, 3},
		{Axial{0, 0}, Axial{3, 2}, 5},
	}
	for _, c := range cases {
		if got := c.a.Distance(c.b); got != c.want {
			t.Errorf("Distance(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestDistanceIsAMetric(t *testing.T) {
	symmetric := func(a, b Axial) bool { return a.Distance(b) == b.Distance(a) }
	if err := quick.Check(symmetric, nil); err != nil {
		t.Error(err)
	}
	identity := func(a Axial) bool { return a.Distance(a) == 0 }
	if err := quick.Check(identity, nil); err != nil {
		t.Error(err)
	}
	triangle := func(a, b, c Axial) bool {
		return a.Distance(c) <= a.Distance(b)+b.Distance(c)
	}
	if err := quick.Check(triangle, nil); err != nil {
		t.Error(err)
	}
	positive := func(a, b Axial) bool {
		d := a.Distance(b)
		return (d == 0) == (a == b) && d >= 0
	}
	if err := quick.Check(positive, nil); err != nil {
		t.Error(err)
	}
}

func TestNeighborsAtDistanceOne(t *testing.T) {
	f := func(a Axial) bool {
		for _, n := range a.Neighbors() {
			if a.Distance(n) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRingSizeAndDistance(t *testing.T) {
	center := Axial{2, -5}
	for radius := 0; radius <= 6; radius++ {
		ring := Ring(center, radius)
		wantLen := 6 * radius
		if radius == 0 {
			wantLen = 1
		}
		if len(ring) != wantLen {
			t.Errorf("Ring radius %d: got %d cells, want %d", radius, len(ring), wantLen)
		}
		seen := map[Axial]bool{}
		for _, c := range ring {
			if center.Distance(c) != radius {
				t.Errorf("Ring radius %d: cell %v at distance %d", radius, c, center.Distance(c))
			}
			if seen[c] {
				t.Errorf("Ring radius %d: duplicate cell %v", radius, c)
			}
			seen[c] = true
		}
	}
	if Ring(center, -1) != nil {
		t.Error("Ring with negative radius should be nil")
	}
}

func TestSpiralSizeAndCoverage(t *testing.T) {
	center := Axial{-1, 4}
	for radius := 0; radius <= 5; radius++ {
		sp := Spiral(center, radius)
		want := 1 + 3*radius*(radius+1)
		if len(sp) != want {
			t.Errorf("Spiral radius %d: got %d cells, want %d", radius, len(sp), want)
		}
		seen := map[Axial]bool{}
		for _, c := range sp {
			if d := center.Distance(c); d > radius {
				t.Errorf("Spiral radius %d: cell %v too far (%d)", radius, c, d)
			}
			if seen[c] {
				t.Errorf("Spiral radius %d: duplicate %v", radius, c)
			}
			seen[c] = true
		}
	}
}

func TestRegionBasics(t *testing.T) {
	r := NewRegion(Axial{0, 0}, Axial{1, 0}, Axial{0, 0})
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (duplicates collapsed)", r.Len())
	}
	if !r.Contains(Axial{1, 0}) || r.Contains(Axial{5, 5}) {
		t.Error("Contains gives wrong answers")
	}
	r.Add(Axial{2, 0})
	r.Remove(Axial{0, 0})
	if r.Len() != 2 || r.Contains(Axial{0, 0}) {
		t.Error("Add/Remove failed")
	}
	r.Remove(Axial{9, 9}) // removing absent cell is a no-op
	if r.Len() != 2 {
		t.Error("removing absent cell changed the region")
	}
}

func TestRegionZeroValue(t *testing.T) {
	var r Region
	if r.Len() != 0 || r.Contains(Axial{}) {
		t.Error("zero-value region should be empty")
	}
	r.Add(Axial{1, 2})
	if !r.Contains(Axial{1, 2}) {
		t.Error("Add on zero-value region failed")
	}
}

func TestRegionCellsDeterministicOrder(t *testing.T) {
	r := NewRegion(Axial{1, 1}, Axial{0, 0}, Axial{-1, 1}, Axial{2, 0})
	got := r.Cells()
	want := []Axial{{0, 0}, {2, 0}, {-1, 1}, {1, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Cells() = %v, want %v", got, want)
	}
}

func TestRegionCloneIsIndependent(t *testing.T) {
	r := NewRegion(Axial{0, 0}, Axial{1, 0})
	c := r.Clone()
	c.Remove(Axial{0, 0})
	if !r.Contains(Axial{0, 0}) {
		t.Error("Clone shares storage with original")
	}
}

func TestRegionBounds(t *testing.T) {
	r := NewRegion(Axial{-2, 3}, Axial{4, -1}, Axial{0, 0})
	minQ, maxQ, minR, maxR, ok := r.Bounds()
	if !ok || minQ != -2 || maxQ != 4 || minR != -1 || maxR != 3 {
		t.Errorf("Bounds = %d %d %d %d %v", minQ, maxQ, minR, maxR, ok)
	}
	var empty Region
	if _, _, _, _, ok := empty.Bounds(); ok {
		t.Error("empty region should report ok=false")
	}
}

func TestBoundaryOfHexagonIsOuterRing(t *testing.T) {
	// For Hexagon(3) the boundary is exactly the radius-3 ring (18 cells).
	boundary := Hexagon(3).Boundary()
	if len(boundary) != 18 {
		t.Errorf("boundary size %d, want 18", len(boundary))
	}
	for _, c := range boundary {
		if c.Norm() != 3 {
			t.Errorf("boundary cell %v has norm %d, want 3", c, c.Norm())
		}
	}
}

func TestConnected(t *testing.T) {
	if !NewRegion().Connected() {
		t.Error("empty region should be connected")
	}
	if !Hexagon(2).Connected() {
		t.Error("hexagon should be connected")
	}
	split := NewRegion(Axial{0, 0}, Axial{5, 5})
	if split.Connected() {
		t.Error("two distant cells should not be connected")
	}
	line := NewRegion(Axial{0, 0}, Axial{1, 0}, Axial{2, -1}, Axial{3, -1},
		Axial{4, -2}, Axial{5, -2}, Axial{6, -3})
	if !line.Connected() {
		t.Error("line region should be connected")
	}
}

func TestParallelogramShape(t *testing.T) {
	p := Parallelogram(4, 3)
	if p.Len() != 12 {
		t.Fatalf("Parallelogram(4,3) has %d cells, want 12", p.Len())
	}
	for _, c := range p.Cells() {
		if c.Q < 0 || c.Q >= 4 || c.R < 0 || c.R >= 3 {
			t.Errorf("cell %v outside bounds", c)
		}
	}
	if !p.Connected() {
		t.Error("parallelogram should be connected")
	}
	if Parallelogram(0, 5).Len() != 0 {
		t.Error("degenerate parallelogram should be empty")
	}
}

func TestHexagonSize(t *testing.T) {
	for radius := 0; radius <= 5; radius++ {
		want := 1 + 3*radius*(radius+1)
		if got := Hexagon(radius).Len(); got != want {
			t.Errorf("Hexagon(%d).Len() = %d, want %d", radius, got, want)
		}
	}
}

func TestSortAxialIsRowMajor(t *testing.T) {
	cells := []Axial{{5, 2}, {1, 0}, {-3, 2}, {0, 0}}
	SortAxial(cells)
	want := []Axial{{0, 0}, {1, 0}, {-3, 2}, {5, 2}}
	if !reflect.DeepEqual(cells, want) {
		t.Errorf("SortAxial = %v, want %v", cells, want)
	}
}

func TestScaleAndSub(t *testing.T) {
	a := Axial{2, -3}
	if a.Scale(3) != (Axial{6, -9}) {
		t.Errorf("Scale failed: %v", a.Scale(3))
	}
	if a.Sub(Axial{1, 1}) != (Axial{1, -4}) {
		t.Errorf("Sub failed: %v", a.Sub(Axial{1, 1}))
	}
}

func BenchmarkDistance(b *testing.B) {
	a, c := Axial{-57, 99}, Axial{123, -45}
	for i := 0; i < b.N; i++ {
		_ = a.Distance(c)
	}
}

func BenchmarkSpiralRadius20(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Spiral(Axial{}, 20)
	}
}
