// Package hexgrid provides geometry for the triangular (hexagonal-cell)
// lattice used by digital microfluidic biochips with hexagonal electrodes.
//
// Cells are addressed with axial coordinates (Q, R). The six neighbors of a
// cell are obtained by adding the six direction vectors in Directions. The
// package also provides hex distance, rings and spirals, and the region
// builders used by the layout package to instantiate DTMB arrays.
package hexgrid

import (
	"fmt"
	"sort"
)

// Axial is a cell address on the hexagonal lattice in axial coordinates.
// The third cube coordinate is implicit: S = -Q-R.
type Axial struct {
	Q, R int
}

// String returns the coordinate in "(q,r)" form.
func (a Axial) String() string { return fmt.Sprintf("(%d,%d)", a.Q, a.R) }

// Directions lists the six neighbor offsets of a hexagonal cell, in
// counterclockwise order starting from "east". A droplet on a hexagonal
// electrode array can move in exactly these six directions.
var Directions = [6]Axial{
	{1, 0}, {1, -1}, {0, -1}, {-1, 0}, {-1, 1}, {0, 1},
}

// Add returns the vector sum a+b.
func (a Axial) Add(b Axial) Axial { return Axial{a.Q + b.Q, a.R + b.R} }

// Sub returns the vector difference a-b.
func (a Axial) Sub(b Axial) Axial { return Axial{a.Q - b.Q, a.R - b.R} }

// Scale returns the coordinate scaled by k.
func (a Axial) Scale(k int) Axial { return Axial{a.Q * k, a.R * k} }

// Neighbor returns the adjacent cell in direction d (0..5).
func (a Axial) Neighbor(d int) Axial { return a.Add(Directions[d%6]) }

// Neighbors returns the six adjacent cells in direction order.
func (a Axial) Neighbors() [6]Axial {
	var n [6]Axial
	for i, d := range Directions {
		n[i] = a.Add(d)
	}
	return n
}

// abs returns the absolute value of x.
func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Norm returns the hex distance from the origin: the minimum number of
// single-cell droplet moves needed to reach a from (0,0).
func (a Axial) Norm() int {
	return (abs(a.Q) + abs(a.R) + abs(a.Q+a.R)) / 2
}

// Distance returns the hex (droplet-move) distance between a and b.
func (a Axial) Distance(b Axial) int { return a.Sub(b).Norm() }

// Ring returns the cells at exactly the given hex distance from center, in
// walk order. Ring(c, 0) returns just the center. The ring at radius r > 0
// contains exactly 6r cells.
func Ring(center Axial, radius int) []Axial {
	if radius < 0 {
		return nil
	}
	if radius == 0 {
		return []Axial{center}
	}
	out := make([]Axial, 0, 6*radius)
	// Start at the cell radius steps in direction 4 (south-west) and walk
	// around the ring, one side per direction.
	cur := center.Add(Directions[4].Scale(radius))
	for side := 0; side < 6; side++ {
		for step := 0; step < radius; step++ {
			out = append(out, cur)
			cur = cur.Neighbor(side)
		}
	}
	return out
}

// Spiral returns all cells within the given hex distance of center, ordered
// center-outward ring by ring. It contains 1 + 3·radius·(radius+1) cells.
func Spiral(center Axial, radius int) []Axial {
	if radius < 0 {
		return nil
	}
	out := make([]Axial, 0, 1+3*radius*(radius+1))
	for r := 0; r <= radius; r++ {
		out = append(out, Ring(center, r)...)
	}
	return out
}

// Region is a finite set of lattice cells. The zero value is an empty region.
type Region struct {
	cells map[Axial]struct{}
}

// NewRegion builds a region from the given cells; duplicates are collapsed.
func NewRegion(cells ...Axial) *Region {
	r := &Region{cells: make(map[Axial]struct{}, len(cells))}
	for _, c := range cells {
		r.cells[c] = struct{}{}
	}
	return r
}

// Add inserts a cell into the region.
func (r *Region) Add(c Axial) {
	if r.cells == nil {
		r.cells = make(map[Axial]struct{})
	}
	r.cells[c] = struct{}{}
}

// Remove deletes a cell from the region; removing an absent cell is a no-op.
func (r *Region) Remove(c Axial) { delete(r.cells, c) }

// Contains reports whether c is in the region.
func (r *Region) Contains(c Axial) bool {
	_, ok := r.cells[c]
	return ok
}

// Len returns the number of cells in the region.
func (r *Region) Len() int { return len(r.cells) }

// Cells returns the region's cells in deterministic (row-major axial) order.
func (r *Region) Cells() []Axial {
	out := make([]Axial, 0, len(r.cells))
	for c := range r.cells {
		out = append(out, c)
	}
	SortAxial(out)
	return out
}

// Clone returns an independent copy of the region.
func (r *Region) Clone() *Region {
	out := &Region{cells: make(map[Axial]struct{}, len(r.cells))}
	for c := range r.cells {
		out.cells[c] = struct{}{}
	}
	return out
}

// Bounds returns the inclusive axial bounding box of the region. ok is false
// for an empty region.
func (r *Region) Bounds() (minQ, maxQ, minR, maxR int, ok bool) {
	first := true
	for c := range r.cells {
		if first {
			minQ, maxQ, minR, maxR = c.Q, c.Q, c.R, c.R
			first = false
			continue
		}
		if c.Q < minQ {
			minQ = c.Q
		}
		if c.Q > maxQ {
			maxQ = c.Q
		}
		if c.R < minR {
			minR = c.R
		}
		if c.R > maxR {
			maxR = c.R
		}
	}
	return minQ, maxQ, minR, maxR, !first
}

// Boundary returns the cells of the region that have at least one neighbor
// outside the region, in deterministic order.
func (r *Region) Boundary() []Axial {
	var out []Axial
	for c := range r.cells {
		for _, n := range c.Neighbors() {
			if !r.Contains(n) {
				out = append(out, c)
				break
			}
		}
	}
	SortAxial(out)
	return out
}

// Connected reports whether the region is connected under 6-adjacency. An
// empty region is considered connected. Droplets cannot jump between
// disconnected components, so chip footprints must be connected.
func (r *Region) Connected() bool {
	if len(r.cells) == 0 {
		return true
	}
	var start Axial
	for c := range r.cells {
		start = c
		break
	}
	seen := map[Axial]struct{}{start: {}}
	queue := []Axial{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, n := range cur.Neighbors() {
			if !r.Contains(n) {
				continue
			}
			if _, ok := seen[n]; ok {
				continue
			}
			seen[n] = struct{}{}
			queue = append(queue, n)
		}
	}
	return len(seen) == len(r.cells)
}

// SortAxial sorts cells in row-major axial order (R, then Q), the package's
// canonical deterministic ordering.
func SortAxial(cells []Axial) {
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].R != cells[j].R {
			return cells[i].R < cells[j].R
		}
		return cells[i].Q < cells[j].Q
	})
}

// Parallelogram returns the w×h axial parallelogram region with q in [0,w)
// and r in [0,h). It is the canonical finite array shape used by the layout
// package.
func Parallelogram(w, h int) *Region {
	r := NewRegion()
	for rr := 0; rr < h; rr++ {
		for q := 0; q < w; q++ {
			r.Add(Axial{q, rr})
		}
	}
	return r
}

// Hexagon returns the regular hexagonal region of the given radius centered
// at the origin (all cells with Norm() <= radius).
func Hexagon(radius int) *Region {
	r := NewRegion()
	for _, c := range Spiral(Axial{}, radius) {
		r.Add(c)
	}
	return r
}
