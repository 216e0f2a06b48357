package layout

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"dmfb/internal/hexgrid"
)

// refBuildWithPrimaryTarget is the reference grow-and-trim builder over
// hexgrid.Region and Build: build every footprint from the first size up
// until one holds nPrimary primaries, then remove primaries from the end of
// the region's row-major boundary, one boundary per round, and build again.
func refBuildWithPrimaryTarget(d Design, nPrimary int, f footprint) (*Array, error) {
	region := func(size int) *hexgrid.Region {
		if f == parallelogram {
			return hexgrid.Parallelogram(size, size)
		}
		return hexgrid.Hexagon(size)
	}
	for size := f.first(); ; size++ {
		r := region(size)
		arr, err := Build(d, r)
		if err != nil {
			return nil, err
		}
		if arr.NumPrimary() < nPrimary {
			continue
		}
		for excess := arr.NumPrimary() - nPrimary; excess > 0; {
			removed := false
			boundary := r.Boundary()
			for i := len(boundary) - 1; i >= 0 && excess > 0; i-- {
				if d.IsSpare(boundary[i]) {
					continue
				}
				r.Remove(boundary[i])
				excess--
				removed = true
			}
			if !removed {
				return nil, fmt.Errorf("reference: cannot trim %d more primaries", excess)
			}
		}
		return Build(d, r)
	}
}

// diffArrays returns the first difference between two arrays in cells,
// roles or any of the three neighbour lists, or "" when they are equal.
func diffArrays(got, want *Array) string {
	if got.NumCells() != want.NumCells() {
		return fmt.Sprintf("%d cells, want %d", got.NumCells(), want.NumCells())
	}
	for i := 0; i < want.NumCells(); i++ {
		id := CellID(i)
		if g, w := got.Cell(id), want.Cell(id); g != w {
			return fmt.Sprintf("cell %d = %+v, want %+v", i, g, w)
		}
		if g, w := got.Neighbors(id), want.Neighbors(id); !slices.Equal(g, w) {
			return fmt.Sprintf("Neighbors(%d) = %v, want %v", i, g, w)
		}
		if g, w := got.SpareNeighbors(id), want.SpareNeighbors(id); !slices.Equal(g, w) {
			return fmt.Sprintf("SpareNeighbors(%d) = %v, want %v", i, g, w)
		}
		if g, w := got.PrimaryNeighbors(id), want.PrimaryNeighbors(id); !slices.Equal(g, w) {
			return fmt.Sprintf("PrimaryNeighbors(%d) = %v, want %v", i, g, w)
		}
	}
	if !slices.Equal(got.Primaries(), want.Primaries()) || !slices.Equal(got.Spares(), want.Spares()) {
		return "primary or spare ID lists differ"
	}
	return ""
}

// TestDifferentialPrimaryTargetBuild pins the counting, bitmap-trimming
// builders to the reference grow-and-trim builder: same cells, IDs, roles
// and neighbour lists for every design, both footprints, every n in
// [1, 256] and a few larger n.
func TestDifferentialPrimaryTargetBuild(t *testing.T) {
	ns := make([]int, 0, 259)
	for n := 1; n <= 256; n++ {
		ns = append(ns, n)
	}
	ns = append(ns, 300, 480, 700)
	builders := []struct {
		name  string
		f     footprint
		build func(Design, int) (*Array, error)
	}{
		{"parallelogram", parallelogram, BuildWithPrimaryTarget},
		{"hexagon", hexagon, BuildHexagonWithPrimaryTarget},
	}
	for _, d := range AllDesignsWithVariants() {
		for _, b := range builders {
			for _, n := range ns {
				want, err := refBuildWithPrimaryTarget(d, n, b.f)
				if err != nil {
					t.Fatalf("%s %s n=%d: reference: %v", d.Name, b.name, n, err)
				}
				got, err := b.build(d, n)
				if err != nil {
					t.Fatalf("%s %s n=%d: %v", d.Name, b.name, n, err)
				}
				if diff := diffArrays(got, want); diff != "" {
					t.Fatalf("%s %s n=%d: %s", d.Name, b.name, n, diff)
				}
			}
		}
	}
}

// TestPrimaryTargetRejectsDesignWithoutPrimaries: a design whose every site
// is a spare can never reach a primary target, so both builders must return
// an error instead of growing the footprint forever.
func TestPrimaryTargetRejectsDesignWithoutPrimaries(t *testing.T) {
	allSpare := Design{Name: "all-spare", S: 6, P: 6, IsSpare: func(hexgrid.Axial) bool { return true }}
	for name, build := range map[string]func(Design, int) (*Array, error){
		"parallelogram": BuildWithPrimaryTarget,
		"hexagon":       BuildHexagonWithPrimaryTarget,
	} {
		done := make(chan error, 1)
		go func() {
			_, err := build(allSpare, 1)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s: all-spare design accepted", name)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: still growing the footprint after 5s", name)
		}
	}
}

// TestPrimaryTargetAllocsConstant pins the one-build construction: a small,
// fixed number of allocations per array whatever its size.
func TestPrimaryTargetAllocsConstant(t *testing.T) {
	const maxAllocs = 16
	for _, d := range AllDesigns() {
		for name, build := range map[string]func(Design, int) (*Array, error){
			"parallelogram": BuildWithPrimaryTarget,
			"hexagon":       BuildHexagonWithPrimaryTarget,
		} {
			var allocs [2]float64
			for i, n := range []int{100, 240} {
				allocs[i] = testing.AllocsPerRun(10, func() {
					if _, err := build(d, n); err != nil {
						t.Fatal(err)
					}
				})
				if allocs[i] > maxAllocs {
					t.Errorf("%s %s n=%d: %.0f allocations, want <= %d", d.Name, name, n, allocs[i], maxAllocs)
				}
			}
			if allocs[0] != allocs[1] {
				t.Errorf("%s %s: %.0f allocations at n=100 but %.0f at n=240", d.Name, name, allocs[0], allocs[1])
			}
		}
	}
}

// TestNeighborSlicesAreCapped: the neighbour lists share flat storage, so
// an append by a caller must copy rather than overwrite the next cell's list.
func TestNeighborSlicesAreCapped(t *testing.T) {
	arr, err := BuildHexagon(DTMB26(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < arr.NumCells(); i++ {
		id := CellID(i)
		for _, s := range [][]CellID{arr.Neighbors(id), arr.SpareNeighbors(id), arr.PrimaryNeighbors(id)} {
			if cap(s) != len(s) {
				t.Fatalf("cell %d: neighbour slice has len %d, cap %d", i, len(s), cap(s))
			}
		}
	}
}

func BenchmarkBuildWithPrimaryTarget(b *testing.B) {
	d := DTMB36()
	for _, fp := range []struct {
		name  string
		build func(Design, int) (*Array, error)
	}{
		{"parallelogram", BuildWithPrimaryTarget},
		{"hexagon", BuildHexagonWithPrimaryTarget},
	} {
		for _, n := range []int{100, 240} {
			b.Run(fmt.Sprintf("%s-n%d", fp.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if _, err := fp.build(d, n); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
