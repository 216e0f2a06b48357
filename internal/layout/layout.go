// Package layout constructs defect-tolerant microfluidic arrays with
// interstitial redundancy, the DTMB(s, p) designs of Su, Chakrabarty and
// Pamula (DATE 2005).
//
// A DTMB(s, p) array is a hexagonal-electrode array in which spare cells
// occupy interstitial lattice sites so that every non-boundary primary cell
// is physically adjacent to exactly s spare cells and every non-boundary
// spare cell is adjacent to exactly p primary cells. Because droplets can
// only move between physically adjacent cells ("microfluidic locality"),
// this placement is what makes purely local reconfiguration possible.
//
// Spare sites form sublattices of the triangular lattice; the membership
// rules below are derived in DESIGN.md §3 and verified by the package tests:
//
//	DTMB(1,6):  (2q − r) ≡ 0 (mod 7)      — the index-7 perfect code
//	DTMB(2,6)A:  q ≡ 0 and r ≡ 0 (mod 2)
//	DTMB(2,6)B:  r ≡ 0 (mod 2) and (2q − r) ≡ 0 (mod 4)
//	DTMB(3,6):  (q − r) ≡ 0 (mod 3)       — the √3×√3 superlattice
//	DTMB(4,4):  r ≡ 0 (mod 2)             — alternating spare rows
package layout

import (
	"fmt"

	"dmfb/internal/hexgrid"
)

// Role distinguishes primary (working) cells from interstitial spares.
type Role uint8

const (
	// Primary cells carry out droplet operations during normal use.
	Primary Role = iota
	// Spare cells sit at interstitial sites and replace adjacent faulty
	// primaries during reconfiguration.
	Spare
)

// String returns "primary" or "spare".
func (r Role) String() string {
	if r == Spare {
		return "spare"
	}
	return "primary"
}

// Design describes a DTMB(s, p) interstitial-redundancy pattern.
type Design struct {
	// Name is the paper's designation, e.g. "DTMB(2,6)".
	Name string
	// S is the number of spare cells adjacent to each non-boundary primary.
	S int
	// P is the number of primary cells adjacent to each non-boundary spare.
	P int
	// IsSpare reports whether the lattice site is a spare site.
	IsSpare func(hexgrid.Axial) bool
}

// RR returns the asymptotic redundancy ratio s/p (spares per primary) of the
// design, Table 1 of the paper.
func (d Design) RR() float64 { return float64(d.S) / float64(d.P) }

// mod returns the non-negative remainder of x modulo m.
func mod(x, m int) int {
	r := x % m
	if r < 0 {
		r += m
	}
	return r
}

// DTMB16 returns the DTMB(1,6) design: every primary adjacent to exactly one
// spare, every spare to six primaries (RR = 1/6). Spares occupy the index-7
// perfect-code sublattice.
func DTMB16() Design {
	return Design{
		Name: "DTMB(1,6)",
		S:    1, P: 6,
		IsSpare: func(a hexgrid.Axial) bool { return mod(2*a.Q-a.R, 7) == 0 },
	}
}

// DTMB26 returns the DTMB(2,6) design of the paper's Fig. 4(a): spares on the
// doubled sublattice (RR = 1/3).
func DTMB26() Design {
	return Design{
		Name: "DTMB(2,6)",
		S:    2, P: 6,
		IsSpare: func(a hexgrid.Axial) bool { return mod(a.Q, 2) == 0 && mod(a.R, 2) == 0 },
	}
}

// DTMB26Alt returns the alternative DTMB(2,6) arrangement of the paper's
// Fig. 4(b): same (s, p) signature and redundancy ratio, different spare
// sublattice geometry.
func DTMB26Alt() Design {
	return Design{
		Name: "DTMB(2,6)alt",
		S:    2, P: 6,
		IsSpare: func(a hexgrid.Axial) bool {
			return mod(a.R, 2) == 0 && mod(2*a.Q-a.R, 4) == 0
		},
	}
}

// DTMB36 returns the DTMB(3,6) design (RR = 1/2): spares on the √3×√3
// superlattice so every primary touches three spares.
func DTMB36() Design {
	return Design{
		Name: "DTMB(3,6)",
		S:    3, P: 6,
		IsSpare: func(a hexgrid.Axial) bool { return mod(a.Q-a.R, 3) == 0 },
	}
}

// DTMB44 returns the DTMB(4,4) design (RR = 1): alternating rows of spares,
// the highest redundancy level evaluated in the paper.
func DTMB44() Design {
	return Design{
		Name: "DTMB(4,4)",
		S:    4, P: 4,
		IsSpare: func(a hexgrid.Axial) bool { return mod(a.R, 2) == 0 },
	}
}

// AllDesigns returns the four canonical designs in the paper's Table 1 order.
// The DTMB(2,6) Fig. 4(b) variant is available via DTMB26Alt.
func AllDesigns() []Design {
	return []Design{DTMB16(), DTMB26(), DTMB36(), DTMB44()}
}

// AllDesignsWithVariants returns every constructible design: the four
// canonical Table 1 designs followed by the DTMB(2,6) Fig. 4(b) variant.
func AllDesignsWithVariants() []Design {
	return append(AllDesigns(), DTMB26Alt())
}

// DesignByName returns the design with the given name (as produced by the
// constructors above, e.g. "DTMB(3,6)").
func DesignByName(name string) (Design, error) {
	for _, d := range AllDesignsWithVariants() {
		if d.Name == name {
			return d, nil
		}
	}
	return Design{}, fmt.Errorf("layout: unknown design %q", name)
}

// CellID indexes a cell within an Array. IDs are dense in [0, NumCells).
type CellID int32

// NoCell marks the absence of a cell.
const NoCell CellID = -1

// Cell is one electrode site of a defect-tolerant array.
type Cell struct {
	ID   CellID
	Pos  hexgrid.Axial
	Role Role
}

// Array is a finite defect-tolerant microfluidic array instantiated from a
// Design over a region of the hexagonal lattice. It precomputes the
// adjacency indices used by reconfiguration and yield simulation.
type Array struct {
	design Design
	cells  []Cell

	// grid is the array's only position index, dense over its axial
	// bounding box: grid[(r−gridMinR)·gridW + (q−gridMinQ)] is the cell at
	// (q,r), or NoCell. CellAt, adjacency construction and Validate resolve
	// positions through it; clustered fault injection does not probe it per
	// position but walks its own padded ring stencil. Build rejects regions
	// too sparse for it (see gridMaxWaste).
	grid            []CellID
	gridMinQ, gridW int
	gridMinR, gridH int

	primaries []CellID // IDs of primary cells, ascending
	spares    []CellID // IDs of spare cells, ascending

	// Flat adjacency. Cell id's array-resident neighbours, in direction
	// order, are nbrs[nbrOff[id]:nbrOff[id+1]]. byRole holds the same
	// neighbours over the same range, spares first and then primaries,
	// each group in direction order; spareEnd[id] is where its spares end.
	nbrOff   []int32
	spareEnd []int32
	nbrs     []CellID
	byRole   []CellID
}

// Build instantiates the design over the given region. Every region cell
// becomes either a primary or a spare according to the design's lattice rule.
func Build(d Design, region *hexgrid.Region) (*Array, error) {
	if d.IsSpare == nil {
		return nil, fmt.Errorf("layout: design %q has no membership rule", d.Name)
	}
	if region == nil || region.Len() == 0 {
		return nil, fmt.Errorf("layout: empty region for design %q", d.Name)
	}
	pos := region.Cells() // deterministic row-major order
	cells := make([]Cell, len(pos))
	for i, p := range pos {
		cells[i].Pos = p
		if d.IsSpare(p) {
			cells[i].Role = Spare
		}
	}
	return newArray(d, cells)
}

// newArray builds the array over cells whose Pos and Role are set and which
// are in row-major axial order (R, then Q); it takes ownership of cells and
// assigns their IDs.
func newArray(d Design, cells []Cell) (*Array, error) {
	arr := &Array{design: d, cells: cells}
	nSpare := 0
	for i := range cells {
		cells[i].ID = CellID(i)
		if cells[i].Role == Spare {
			nSpare++
		}
	}
	nPrimary := len(cells) - nSpare
	ids := make([]CellID, len(cells))
	arr.primaries, arr.spares = ids[:0:nPrimary], ids[nPrimary:nPrimary]
	for i := range cells {
		if cells[i].Role == Spare {
			arr.spares = append(arr.spares, CellID(i))
		} else {
			arr.primaries = append(arr.primaries, CellID(i))
		}
	}
	if err := arr.buildGrid(); err != nil {
		return nil, err
	}
	arr.buildAdjacency()
	return arr, nil
}

// gridMaxWaste bounds the dense position index: the bounding box may hold at
// most this many slots per resident cell, or Build rejects the region. Every
// array shape the package constructs (parallelograms, hexagons, offset
// rectangles, cluster unions) is within a small constant of dense, so the
// guard only trips for degenerate hand-built regions such as long diagonal
// lines or far-apart islands.
const gridMaxWaste = 64

// buildGrid builds the dense position index over the axial bounding box.
func (a *Array) buildGrid() error {
	minQ, maxQ := a.cells[0].Pos.Q, a.cells[0].Pos.Q
	minR, maxR := a.cells[0].Pos.R, a.cells[0].Pos.R
	for i := range a.cells {
		p := a.cells[i].Pos
		if p.Q < minQ {
			minQ = p.Q
		}
		if p.Q > maxQ {
			maxQ = p.Q
		}
		if p.R < minR {
			minR = p.R
		}
		if p.R > maxR {
			maxR = p.R
		}
	}
	w, h := maxQ-minQ+1, maxR-minR+1
	if w*h > gridMaxWaste*len(a.cells) {
		return fmt.Errorf("layout: %d-cell region spans a %dx%d bounding box, more than %d slots per cell",
			len(a.cells), w, h, gridMaxWaste)
	}
	a.gridMinQ, a.gridW = minQ, w
	a.gridMinR, a.gridH = minR, h
	a.grid = make([]CellID, w*h)
	for i := range a.grid {
		a.grid[i] = NoCell
	}
	for i := range a.cells {
		p := a.cells[i].Pos
		a.grid[(p.R-minR)*w+(p.Q-minQ)] = CellID(i)
	}
	return nil
}

// BuildParallelogram instantiates the design over a w×h axial parallelogram.
func BuildParallelogram(d Design, w, h int) (*Array, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("layout: invalid parallelogram %dx%d", w, h)
	}
	return Build(d, hexgrid.Parallelogram(w, h))
}

// BuildHexagon instantiates the design over a hexagonal region of the given
// radius centered at the origin.
func BuildHexagon(d Design, radius int) (*Array, error) {
	if radius < 0 {
		return nil, fmt.Errorf("layout: invalid hexagon radius %d", radius)
	}
	return Build(d, hexgrid.Hexagon(radius))
}

// BuildWithPrimaryTarget builds an array with exactly nPrimary primary cells,
// the parameter the paper sweeps ("n is the number of primary cells"). It
// takes the smallest side×side parallelogram (side ≥ 2) holding at least
// nPrimary primaries, then trims surplus primary cells from the region
// boundary (never spares, so the redundancy structure of the remaining
// primaries is intact).
func BuildWithPrimaryTarget(d Design, nPrimary int) (*Array, error) {
	return buildWithPrimaryTarget(d, nPrimary, parallelogram)
}

// BuildHexagonWithPrimaryTarget builds an array over a regular hexagonal
// chip footprint with exactly nPrimary primary cells — the hexagonal-array
// DTMB geometry of the companion fault-tolerance work, where the chip
// outline follows the lattice instead of a rectangle. It takes the smallest
// hexagon radius holding at least nPrimary primaries, then trims surplus
// primaries from the region boundary (never spares), exactly like
// BuildWithPrimaryTarget does for parallelogram footprints. Relative to a
// parallelogram of equal primary count the hexagon has proportionally fewer
// boundary cells, so more of its primaries enjoy the full (s, p)
// interstitial signature.
func BuildHexagonWithPrimaryTarget(d Design, nPrimary int) (*Array, error) {
	return buildWithPrimaryTarget(d, nPrimary, hexagon)
}

// footprint is a chip outline the primary-target builders grow one size at
// a time: the side×side axial parallelogram from side 2, or the hexagon of
// a radius about the origin from radius 0.
type footprint uint8

const (
	parallelogram footprint = iota
	hexagon
)

// first is the smallest size the footprint is built at.
func (f footprint) first() int {
	if f == parallelogram {
		return 2
	}
	return 0
}

// shell counts the cells, and the primaries among them, that the footprint
// gains in growing from size−1 to size.
func (f footprint) shell(d Design, size int) (cells, primaries int) {
	site := func(a hexgrid.Axial) {
		cells++
		if !d.IsSpare(a) {
			primaries++
		}
	}
	if f == parallelogram {
		for q := 0; q < size; q++ {
			site(hexgrid.Axial{Q: q, R: size - 1})
		}
		for r := 0; r < size-1; r++ {
			site(hexgrid.Axial{Q: size - 1, R: r})
		}
		return cells, primaries
	}
	if size == 0 {
		site(hexgrid.Axial{})
		return cells, primaries
	}
	// The ring walk of hexgrid.Ring, without building the slice.
	cur := hexgrid.Directions[4].Scale(size)
	for side := 0; side < 6; side++ {
		for step := 0; step < size; step++ {
			site(cur)
			cur = cur.Neighbor(side)
		}
	}
	return cells, primaries
}

// box returns the footprint's square axial bounding box at size: q and r
// both run over [lo, lo+w).
func (f footprint) box(size int) (lo, w int) {
	if f == parallelogram {
		return 0, size
	}
	return -size, 2*size + 1
}

// contains reports whether a position inside box(size) is in the footprint.
func (f footprint) contains(size int, a hexgrid.Axial) bool {
	return f == parallelogram || a.Norm() <= size
}

// Bits of a site in the trimming bitmap.
const (
	siteMember uint8 = 1 << iota // in the region now
	siteRound                    // in the region when the current round began
	siteSpare                    // a spare site of the design
)

// buildWithPrimaryTarget picks the smallest footprint holding nPrimary
// primaries by counting sites, trims the surplus on a bitmap, and builds
// the array once.
func buildWithPrimaryTarget(d Design, nPrimary int, f footprint) (*Array, error) {
	if nPrimary <= 0 {
		return nil, fmt.Errorf("layout: primary target %d must be positive", nPrimary)
	}
	if d.IsSpare == nil {
		return nil, fmt.Errorf("layout: design %q has no membership rule", d.Name)
	}
	size, cells, primaries := 0, 0, 0
	for ; ; size++ {
		c, p := f.shell(d, size)
		cells, primaries = cells+c, primaries+p
		if size < f.first() {
			continue
		}
		if primaries >= nPrimary {
			break
		}
		// The growth would never end on a design with too few primary
		// sites; stop at the density Build's position index tolerates.
		if cells > gridMaxWaste*nPrimary {
			return nil, fmt.Errorf("layout: %s: %d-cell footprint holds only %d of %d primaries",
				d.Name, cells, primaries, nPrimary)
		}
	}

	// The bitmap covers the bounding box padded by one site on every side,
	// so every member's six neighbours are in range.
	lo, w := f.box(size)
	stride := w + 2
	bits := make([]uint8, stride*stride)
	for r := 0; r < w; r++ {
		for q := 0; q < w; q++ {
			pos := hexgrid.Axial{Q: lo + q, R: lo + r}
			if !f.contains(size, pos) {
				continue
			}
			b := siteMember
			if d.IsSpare(pos) {
				b |= siteSpare
			}
			bits[(r+1)*stride+q+1] = b
		}
	}

	// Each round takes the boundary of the region as it stands when the
	// round begins, in row-major order, and removes primaries from its end
	// until the surplus is gone. Walking the bitmap backwards visits the
	// boundary in that order; siteRound keeps the round's starting region
	// so removals earlier in the walk do not put new cells on the boundary.
	dirs := [6]int{1, 1 - stride, -stride, -1, stride - 1, stride}
	excess := primaries - nPrimary
	for left := excess; left > 0; {
		for i, b := range bits {
			if b&siteMember != 0 {
				bits[i] = b | siteRound
			} else {
				bits[i] = b &^ siteRound
			}
		}
		removed := false
		for i := len(bits) - 1; i >= 0 && left > 0; i-- {
			if bits[i]&(siteMember|siteSpare) != siteMember {
				continue
			}
			for _, o := range dirs {
				if bits[i+o]&siteRound == 0 {
					bits[i] &^= siteMember
					left--
					removed = true
					break
				}
			}
		}
		if !removed {
			return nil, fmt.Errorf("layout: cannot trim %d more primaries", left)
		}
	}

	out := make([]Cell, 0, cells-excess)
	for r := 0; r < w; r++ {
		for q := 0; q < w; q++ {
			b := bits[(r+1)*stride+q+1]
			if b&siteMember == 0 {
				continue
			}
			c := Cell{Pos: hexgrid.Axial{Q: lo + q, R: lo + r}}
			if b&siteSpare != 0 {
				c.Role = Spare
			}
			out = append(out, c)
		}
	}
	return newArray(d, out)
}

// BuildClusterCompleteDTMB16 builds a DTMB(1,6) array as a union of
// nClusters complete clusters — one spare plus its six surrounding primaries
// — chosen spiral-outward from the origin. Because the spare sites form a
// perfect code, clusters are disjoint and the array has exactly 6·nClusters
// primary cells, every primary owning its cluster spare. This is the exact
// geometry assumed by the paper's analytical yield model
// Y = (p^7 + 7p^6(1−p))^(n/6); parallelogram arrays deviate from it at the
// boundary (see the boundary-effects ablation in EXPERIMENTS.md).
func BuildClusterCompleteDTMB16(nClusters int) (*Array, error) {
	if nClusters <= 0 {
		return nil, fmt.Errorf("layout: cluster count %d must be positive", nClusters)
	}
	d := DTMB16()
	region := hexgrid.NewRegion()
	added := 0
	for radius := 0; added < nClusters; radius++ {
		for _, c := range hexgrid.Ring(hexgrid.Axial{}, radius) {
			if !d.IsSpare(c) {
				continue
			}
			region.Add(c)
			for _, nb := range c.Neighbors() {
				region.Add(nb)
			}
			added++
			if added == nClusters {
				break
			}
		}
	}
	return Build(d, region)
}

// buildAdjacency fills the flat adjacency in two passes over the position
// index: the first sizes each cell's range, the second fills it.
func (a *Array) buildAdjacency() {
	n := len(a.cells)
	offs := make([]int32, 2*n+1)
	a.nbrOff, a.spareEnd = offs[:n+1], offs[n+1:]
	var total int32
	for i := range a.cells {
		a.nbrOff[i] = total
		var nSpare int32
		for _, npos := range a.cells[i].Pos.Neighbors() {
			if nid := a.CellAt(npos); nid != NoCell {
				total++
				if a.cells[nid].Role == Spare {
					nSpare++
				}
			}
		}
		a.spareEnd[i] = a.nbrOff[i] + nSpare
	}
	a.nbrOff[n] = total
	flat := make([]CellID, 2*total)
	a.nbrs, a.byRole = flat[:total], flat[total:]
	for i := range a.cells {
		k, s, p := a.nbrOff[i], a.nbrOff[i], a.spareEnd[i]
		for _, npos := range a.cells[i].Pos.Neighbors() {
			nid := a.CellAt(npos)
			if nid == NoCell {
				continue
			}
			a.nbrs[k] = nid
			k++
			if a.cells[nid].Role == Spare {
				a.byRole[s] = nid
				s++
			} else {
				a.byRole[p] = nid
				p++
			}
		}
	}
}

// Design returns the design the array was built from.
func (a *Array) Design() Design { return a.design }

// NumCells returns the total number of cells N (primaries + spares).
func (a *Array) NumCells() int { return len(a.cells) }

// NumPrimary returns the number of primary cells n.
func (a *Array) NumPrimary() int { return len(a.primaries) }

// NumSpare returns the number of spare cells.
func (a *Array) NumSpare() int { return len(a.spares) }

// Primaries returns the IDs of all primary cells in ascending order. The
// slice is owned by the array and must not be modified.
func (a *Array) Primaries() []CellID { return a.primaries }

// Spares returns the IDs of all spare cells in ascending order. The slice is
// owned by the array and must not be modified.
func (a *Array) Spares() []CellID { return a.spares }

// Cell returns the cell with the given ID.
func (a *Array) Cell(id CellID) Cell { return a.cells[id] }

// CellAt returns the ID of the cell at the given position, or NoCell.
func (a *Array) CellAt(pos hexgrid.Axial) CellID {
	q, r := pos.Q-a.gridMinQ, pos.R-a.gridMinR
	if uint(q) >= uint(a.gridW) || uint(r) >= uint(a.gridH) {
		return NoCell
	}
	return a.grid[r*a.gridW+q]
}

// Neighbors returns the array-resident neighbors of id. The slice is owned by
// the array and must not be modified.
func (a *Array) Neighbors(id CellID) []CellID {
	lo, hi := a.nbrOff[id], a.nbrOff[id+1]
	return a.nbrs[lo:hi:hi]
}

// SpareNeighbors returns the spare cells adjacent to id (normally a primary).
// The slice is owned by the array and must not be modified.
func (a *Array) SpareNeighbors(id CellID) []CellID {
	lo, hi := a.nbrOff[id], a.spareEnd[id]
	return a.byRole[lo:hi:hi]
}

// PrimaryNeighbors returns the primary cells adjacent to id (normally a
// spare). The slice is owned by the array and must not be modified.
func (a *Array) PrimaryNeighbors(id CellID) []CellID {
	lo, hi := a.spareEnd[id], a.nbrOff[id+1]
	return a.byRole[lo:hi:hi]
}

// RedundancyRatio returns the realized spare/primary ratio of this finite
// array. It approaches Design().RR() as the array grows (Definition 2).
func (a *Array) RedundancyRatio() float64 {
	if len(a.primaries) == 0 {
		return 0
	}
	return float64(len(a.spares)) / float64(len(a.primaries))
}

// IsInterior reports whether all six lattice neighbors of id are present in
// the array. The DTMB (s, p) signature is guaranteed only for interior cells.
func (a *Array) IsInterior(id CellID) bool { return a.nbrOff[id+1]-a.nbrOff[id] == 6 }

// SignatureStats summarizes how many interior cells match the design's
// (s, p) signature; used by Validate and reported by the layout tool.
type SignatureStats struct {
	InteriorPrimaries, MatchingPrimaries int
	InteriorSpares, MatchingSpares       int
}

// Signature verifies the DTMB(s, p) property on interior cells.
func (a *Array) Signature() SignatureStats {
	var st SignatureStats
	for i := range a.cells {
		id := CellID(i)
		if !a.IsInterior(id) {
			continue
		}
		switch a.cells[i].Role {
		case Primary:
			st.InteriorPrimaries++
			if len(a.SpareNeighbors(id)) == a.design.S {
				st.MatchingPrimaries++
			}
		case Spare:
			st.InteriorSpares++
			if len(a.PrimaryNeighbors(id)) == a.design.P {
				st.MatchingSpares++
			}
		}
	}
	return st
}

// Validate checks the structural invariants of the array: dense IDs,
// consistent index, no adjacent spare pair (spares are interstitial), and the
// exact (s, p) signature on every interior cell. It returns nil when sound.
func (a *Array) Validate() error {
	for i := range a.cells {
		if a.cells[i].ID != CellID(i) {
			return fmt.Errorf("layout: cell %d has ID %d", i, a.cells[i].ID)
		}
		if got := a.CellAt(a.cells[i].Pos); got != CellID(i) {
			return fmt.Errorf("layout: CellAt(%v) = %d, want %d", a.cells[i].Pos, got, i)
		}
	}
	// When p = 6 a spare's whole neighborhood is primary, so spares must be
	// pairwise non-adjacent. Designs with p < 6 (DTMB(4,4)) place spares in
	// rows: an interior spare then touches exactly 6−p other spares, which
	// the signature check below enforces.
	if a.design.P == 6 {
		for _, s := range a.spares {
			for _, nb := range a.Neighbors(s) {
				if a.cells[nb].Role == Spare {
					return fmt.Errorf("layout: adjacent spares %v and %v in %s",
						a.cells[s].Pos, a.cells[nb].Pos, a.design.Name)
				}
			}
		}
	}
	st := a.Signature()
	if st.MatchingPrimaries != st.InteriorPrimaries {
		return fmt.Errorf("layout: %s: %d/%d interior primaries have s=%d spare neighbors",
			a.design.Name, st.MatchingPrimaries, st.InteriorPrimaries, a.design.S)
	}
	if st.MatchingSpares != st.InteriorSpares {
		return fmt.Errorf("layout: %s: %d/%d interior spares have p=%d primary neighbors",
			a.design.Name, st.MatchingSpares, st.InteriorSpares, a.design.P)
	}
	return nil
}

// Region returns a copy of the array's cell positions as a region.
func (a *Array) Region() *hexgrid.Region {
	r := hexgrid.NewRegion()
	for i := range a.cells {
		r.Add(a.cells[i].Pos)
	}
	return r
}

// String summarizes the array.
func (a *Array) String() string {
	return fmt.Sprintf("%s array: %d primary + %d spare = %d cells (RR %.4f)",
		a.design.Name, a.NumPrimary(), a.NumSpare(), a.NumCells(), a.RedundancyRatio())
}
