// Package sqgrid models square-electrode microfluidic arrays: the geometry of
// the first-generation fabricated biochip (paper Fig. 11) and the
// boundary-spare-row arrays used by the shifted-replacement baseline that the
// paper argues against (Fig. 2).
//
// A Placement arranges rectangular modules (mixers, detectors, storage) on a
// Grid, optionally reserving spare rows at the bottom boundary — the classic
// row-redundancy arrangement whose repair cascades package reconfig
// implements. PlacementWithPrimaryTarget builds such arrays with an exact
// working-cell count, the knob the yield sweeps vary when comparing boundary
// redundancy against the paper's interstitial designs.
package sqgrid

import (
	"fmt"
	"sort"
)

// Coord is a cell position on the square lattice.
type Coord struct {
	X, Y int
}

// String formats the coordinate.
func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// Directions4 lists the four von-Neumann neighbor offsets. On a
// square-electrode array a droplet can move in exactly these directions.
var Directions4 = [4]Coord{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}

// Add returns the vector sum.
func (c Coord) Add(d Coord) Coord { return Coord{c.X + d.X, c.Y + d.Y} }

// Neighbors4 returns the four adjacent cells.
func (c Coord) Neighbors4() [4]Coord {
	var out [4]Coord
	for i, d := range Directions4 {
		out[i] = c.Add(d)
	}
	return out
}

// Grid is a W×H array of square electrodes.
type Grid struct {
	W, H int
}

// Contains reports whether the coordinate lies on the grid.
func (g Grid) Contains(c Coord) bool {
	return c.X >= 0 && c.X < g.W && c.Y >= 0 && c.Y < g.H
}

// NumCells returns W·H.
func (g Grid) NumCells() int { return g.W * g.H }

// Index returns the dense row-major index of c, or -1 if off-grid.
func (g Grid) Index(c Coord) int {
	if !g.Contains(c) {
		return -1
	}
	return c.Y*g.W + c.X
}

// CoordOf inverts Index.
func (g Grid) CoordOf(i int) Coord { return Coord{i % g.W, i / g.W} }

// Module is a rectangular group of cells reconfigured as a unit (mixer,
// detector, storage, ...). It occupies columns [X, X+W) and rows [Y, Y+H).
type Module struct {
	Name string
	X, Y int
	W, H int
}

// Cells returns the module's cells in row-major order.
func (m Module) Cells() []Coord {
	out := make([]Coord, 0, m.W*m.H)
	for y := m.Y; y < m.Y+m.H; y++ {
		for x := m.X; x < m.X+m.W; x++ {
			out = append(out, Coord{x, y})
		}
	}
	return out
}

// Contains reports whether the module covers c.
func (m Module) Contains(c Coord) bool {
	return c.X >= m.X && c.X < m.X+m.W && c.Y >= m.Y && c.Y < m.Y+m.H
}

// Overlaps reports whether two modules share any cell.
func (m Module) Overlaps(o Module) bool {
	return m.X < o.X+o.W && o.X < m.X+m.W && m.Y < o.Y+o.H && o.Y < m.Y+m.H
}

// Placement is a set of modules on a grid, optionally with reserved spare
// rows at the bottom of the array (rows H-SpareRows .. H-1), the classic
// boundary-redundancy arrangement.
type Placement struct {
	Grid      Grid
	Modules   []Module
	SpareRows int
}

// usableH returns the number of rows available to modules before
// reconfiguration dips into the spare rows.
func (p Placement) usableH() int { return p.Grid.H - p.SpareRows }

// Validate checks bounds (modules must initially avoid the spare rows),
// non-overlap, and positive module dimensions. It returns nil when sound.
func (p Placement) Validate() error {
	if p.Grid.W <= 0 || p.Grid.H <= 0 {
		return fmt.Errorf("sqgrid: degenerate grid %dx%d", p.Grid.W, p.Grid.H)
	}
	if p.SpareRows < 0 || p.SpareRows >= p.Grid.H {
		return fmt.Errorf("sqgrid: %d spare rows on %d-row grid", p.SpareRows, p.Grid.H)
	}
	for i, m := range p.Modules {
		if m.W <= 0 || m.H <= 0 {
			return fmt.Errorf("sqgrid: module %q has degenerate size %dx%d", m.Name, m.W, m.H)
		}
		if m.X < 0 || m.Y < 0 || m.X+m.W > p.Grid.W || m.Y+m.H > p.usableH() {
			return fmt.Errorf("sqgrid: module %q out of usable area", m.Name)
		}
		for j := i + 1; j < len(p.Modules); j++ {
			if m.Overlaps(p.Modules[j]) {
				return fmt.Errorf("sqgrid: modules %q and %q overlap", m.Name, p.Modules[j].Name)
			}
		}
	}
	return nil
}

// ModuleAt returns the index of the module covering c, or -1.
func (p Placement) ModuleAt(c Coord) int {
	for i, m := range p.Modules {
		if m.Contains(c) {
			return i
		}
	}
	return -1
}

// Clone returns a deep copy of the placement.
func (p Placement) Clone() Placement {
	out := p
	out.Modules = append([]Module(nil), p.Modules...)
	return out
}

// UsedCells returns the distinct cells covered by any module, sorted
// row-major.
func (p Placement) UsedCells() []Coord {
	seen := map[Coord]struct{}{}
	for _, m := range p.Modules {
		for _, c := range m.Cells() {
			seen[c] = struct{}{}
		}
	}
	out := make([]Coord, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Y != out[j].Y {
			return out[i].Y < out[j].Y
		}
		return out[i].X < out[j].X
	})
	return out
}

// PlacementWithPrimaryTarget builds a spare-row placement with exactly
// nPrimary working (module-covered) cells and the given number of boundary
// spare rows — the square-grid counterpart of layout.BuildWithPrimaryTarget,
// used to compare shifted replacement against interstitial redundancy at
// equal primary-cell counts. The working area is a near-square block of
// width ceil(sqrt(nPrimary)): full rows sit next to the spare rows (so
// cascades stay short where the array is dense) and any partial row sits at
// the top. Spare rows occupy the bottom of the grid, as in the paper's
// Fig. 2.
func PlacementWithPrimaryTarget(nPrimary, spareRows int) (Placement, error) {
	if nPrimary <= 0 {
		return Placement{}, fmt.Errorf("sqgrid: primary target %d must be positive", nPrimary)
	}
	if spareRows < 1 {
		return Placement{}, fmt.Errorf("sqgrid: spare-row count %d must be at least 1", spareRows)
	}
	w := 1
	for w*w < nPrimary {
		w++
	}
	usable := (nPrimary + w - 1) / w
	rem := nPrimary - w*(usable-1) // cells in the partial top row (0 < rem <= w)
	p := Placement{
		Grid:      Grid{W: w, H: usable + spareRows},
		SpareRows: spareRows,
	}
	if rem == w {
		p.Modules = []Module{{Name: "work", X: 0, Y: 0, W: w, H: usable}}
	} else {
		p.Modules = []Module{{Name: "work-top", X: 0, Y: 0, W: rem, H: 1}}
		if usable > 1 {
			p.Modules = append(p.Modules, Module{Name: "work", X: 0, Y: 1, W: w, H: usable - 1})
		}
	}
	if err := p.Validate(); err != nil {
		return Placement{}, err
	}
	return p, nil
}

// Figure2Placement reproduces the arrangement of the paper's Fig. 2: three
// stacked modules above a single spare row. Module 1 sits directly above the
// spare row, Module 3 on top.
func Figure2Placement() Placement {
	g := Grid{W: 8, H: 10}
	return Placement{
		Grid:      g,
		SpareRows: 1,
		Modules: []Module{
			{Name: "Module 1", X: 1, Y: 6, W: 6, H: 3},
			{Name: "Module 2", X: 1, Y: 3, W: 6, H: 3},
			{Name: "Module 3", X: 1, Y: 0, W: 6, H: 3},
		},
	}
}
