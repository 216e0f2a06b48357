package router

import (
	"math/rand"
	"testing"

	"dmfb/internal/defects"
	"dmfb/internal/layout"
)

func buildArray(t testing.TB) *layout.Array {
	t.Helper()
	arr, err := layout.BuildParallelogram(layout.DTMB26(), 12, 12)
	if err != nil {
		t.Fatal(err)
	}
	return arr
}

func pathValid(t *testing.T, arr *layout.Array, path []layout.CellID, c Constraints) {
	t.Helper()
	for i, id := range path {
		if !c.usable(arr, id) {
			t.Fatalf("path cell %d unusable", id)
		}
		if i > 0 {
			ok := false
			for _, nb := range arr.Neighbors(path[i-1]) {
				if nb == id {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("path jumps %d -> %d", path[i-1], id)
			}
		}
	}
}

func TestShortestPathStraightLine(t *testing.T) {
	arr := buildArray(t)
	src := arr.CellAt(arr.Cell(0).Pos)
	dst := layout.CellID(arr.NumCells() - 1)
	path, err := ShortestPath(arr, src, dst, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	pathValid(t, arr, path, Constraints{})
	// On a defect-free array the shortest path length equals hex distance.
	want := arr.Cell(src).Pos.Distance(arr.Cell(dst).Pos) + 1
	if len(path) != want {
		t.Errorf("path length %d, want %d", len(path), want)
	}
	if path[0] != src || path[len(path)-1] != dst {
		t.Error("endpoints wrong")
	}
}

func TestShortestPathDegenerate(t *testing.T) {
	arr := buildArray(t)
	path, err := ShortestPath(arr, 5, 5, Constraints{})
	if err != nil || len(path) != 1 {
		t.Errorf("self path %v err %v", path, err)
	}
}

func TestShortestPathAvoidsFaults(t *testing.T) {
	arr := buildArray(t)
	fs := defects.NewFaultSet(arr.NumCells())
	src, dst := layout.CellID(0), layout.CellID(arr.NumCells()-1)
	free, err := ShortestPath(arr, src, dst, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	// Fail an interior cell of the free path and re-route.
	fs.MarkFaulty(free[len(free)/2])
	c := Constraints{Faults: fs}
	detour, err := ShortestPath(arr, src, dst, c)
	if err != nil {
		t.Fatal(err)
	}
	pathValid(t, arr, detour, c)
	if len(detour) < len(free) {
		t.Error("detour shorter than free path")
	}
}

func TestShortestPathUnusableEndpoints(t *testing.T) {
	arr := buildArray(t)
	fs := defects.NewFaultSet(arr.NumCells())
	fs.MarkFaulty(0)
	c := Constraints{Faults: fs}
	if _, err := ShortestPath(arr, 0, 5, c); err == nil {
		t.Error("faulty source accepted")
	}
	if _, err := ShortestPath(arr, 5, 0, c); err == nil {
		t.Error("faulty destination accepted")
	}
	if _, err := ShortestPath(arr, -1, 5, Constraints{}); err == nil {
		t.Error("out-of-range source accepted")
	}
}

func TestNoRouteThroughBlockade(t *testing.T) {
	arr := buildArray(t)
	// Fail an entire row band (r = 5, 6) to cut the parallelogram in two.
	fs := defects.NewFaultSet(arr.NumCells())
	for i := 0; i < arr.NumCells(); i++ {
		r := arr.Cell(layout.CellID(i)).Pos.R
		if r == 5 || r == 6 {
			fs.MarkFaulty(layout.CellID(i))
		}
	}
	var north, south layout.CellID = layout.NoCell, layout.NoCell
	for i := 0; i < arr.NumCells(); i++ {
		r := arr.Cell(layout.CellID(i)).Pos.R
		if r == 0 && north == layout.NoCell {
			north = layout.CellID(i)
		}
		if r == 11 {
			south = layout.CellID(i)
		}
	}
	if _, err := ShortestPath(arr, north, south, Constraints{Faults: fs}); err == nil {
		t.Error("route through blockade accepted")
	}
}

func TestAStarMatchesBFSLength(t *testing.T) {
	arr := buildArray(t)
	rng := rand.New(rand.NewSource(4))
	in := defects.NewInjector(4)
	for trial := 0; trial < 60; trial++ {
		fs := in.Bernoulli(arr, 0.93, nil)
		c := Constraints{Faults: fs}
		src := layout.CellID(rng.Intn(arr.NumCells()))
		dst := layout.CellID(rng.Intn(arr.NumCells()))
		bfsPath, bfsErr := ShortestPath(arr, src, dst, c)
		aPath, aErr := AStarPath(arr, src, dst, c)
		if (bfsErr == nil) != (aErr == nil) {
			t.Fatalf("trial %d: BFS err %v, A* err %v", trial, bfsErr, aErr)
		}
		if bfsErr != nil {
			continue
		}
		if len(bfsPath) != len(aPath) {
			t.Fatalf("trial %d: BFS length %d != A* length %d", trial, len(bfsPath), len(aPath))
		}
		pathValid(t, arr, aPath, c)
	}
}

func TestPrimariesOnlyConstraint(t *testing.T) {
	arr := buildArray(t)
	primaries := arr.Primaries()
	src, dst := primaries[0], primaries[len(primaries)-1]
	c := Constraints{PrimariesOnly: true}
	path, err := ShortestPath(arr, src, dst, c)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range path {
		if arr.Cell(id).Role != layout.Primary {
			t.Fatalf("path crosses spare %d", id)
		}
	}
}

func TestAllowedMaskConstraint(t *testing.T) {
	arr := buildArray(t)
	allowed := make([]bool, arr.NumCells())
	// Allow only row r=0.
	var rowCells []layout.CellID
	for i := 0; i < arr.NumCells(); i++ {
		if arr.Cell(layout.CellID(i)).Pos.R == 0 {
			allowed[i] = true
			rowCells = append(rowCells, layout.CellID(i))
		}
	}
	c := Constraints{Allowed: allowed}
	path, err := ShortestPath(arr, rowCells[0], rowCells[len(rowCells)-1], c)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range path {
		if !allowed[id] {
			t.Fatalf("path leaves allowed mask at %d", id)
		}
	}
	// A cell outside the mask is unreachable.
	outside := layout.CellID(-1)
	for i := 0; i < arr.NumCells(); i++ {
		if !allowed[i] {
			outside = layout.CellID(i)
			break
		}
	}
	if _, err := ShortestPath(arr, rowCells[0], outside, c); err == nil {
		t.Error("route outside mask accepted")
	}
}

func TestReachableFrom(t *testing.T) {
	arr := buildArray(t)
	all := ReachableFrom(arr, 0, Constraints{})
	if len(all) != arr.NumCells() {
		t.Errorf("reachable %d of %d", len(all), arr.NumCells())
	}
	// Cut the array and check the component shrinks.
	fs := defects.NewFaultSet(arr.NumCells())
	for i := 0; i < arr.NumCells(); i++ {
		r := arr.Cell(layout.CellID(i)).Pos.R
		if r == 5 || r == 6 {
			fs.MarkFaulty(layout.CellID(i))
		}
	}
	part := ReachableFrom(arr, 0, Constraints{Faults: fs})
	if len(part) >= arr.NumCells()-2*12 {
		t.Errorf("blockade did not shrink reachability: %d", len(part))
	}
	if ReachableFrom(arr, 0, Constraints{Faults: func() *defects.FaultSet {
		f := defects.NewFaultSet(arr.NumCells())
		f.MarkFaulty(0)
		return f
	}()}) != nil {
		t.Error("faulty source should reach nothing")
	}
}

func BenchmarkShortestPathCaseStudySize(b *testing.B) {
	arr, err := layout.BuildParallelogram(layout.DTMB26(), 14, 25)
	if err != nil {
		b.Fatal(err)
	}
	src, dst := layout.CellID(0), layout.CellID(arr.NumCells()-1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ShortestPath(arr, src, dst, Constraints{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAStarCaseStudySize(b *testing.B) {
	arr, err := layout.BuildParallelogram(layout.DTMB26(), 14, 25)
	if err != nil {
		b.Fatal(err)
	}
	src, dst := layout.CellID(0), layout.CellID(arr.NumCells()-1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AStarPath(arr, src, dst, Constraints{}); err != nil {
			b.Fatal(err)
		}
	}
}
