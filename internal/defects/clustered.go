package defects

import (
	"fmt"
	"math"

	"dmfb/internal/hexgrid"
	"dmfb/internal/layout"
)

// ClusterParams parameterizes clustered catastrophic-defect injection: the
// spatially correlated alternative to the paper's independent-failure
// assumption. Real manufacturing defects (particles, resist flaws, bonding
// voids) strike neighborhoods, not isolated electrodes, so the fault-tolerant
// design-flow literature evaluates redundancy schemes under clustered spot
// defects as well.
//
// A draw seeds a Poisson(MeanDefects/ClusterSize) number of cluster centers
// uniformly over the array. Each cluster marks its center faulty and then
// every cell at lattice distance r from the center independently with
// probability d^r, where the per-ring decay d is solved so that a cluster
// away from the array boundary contains ClusterSize cells in expectation
// ("geometric radius decay"). Clusters overlapping the boundary are
// truncated, so the realized defect density runs slightly below MeanDefects
// on small arrays — the same boundary effect physical chips show.
type ClusterParams struct {
	// MeanDefects is the expected number of faulty cells over the whole
	// array (before boundary truncation). Must be non-negative.
	MeanDefects float64
	// ClusterSize is the expected number of cells per cluster, at least 1.
	// 1 degenerates to independent single-cell spot defects at Poisson rate
	// MeanDefects.
	ClusterSize float64
}

// validate checks the parameter ranges.
func (cp ClusterParams) validate() error {
	// An infinite mean would never drain the Poisson sampler's countdown
	// (Inf − 256 = Inf), so finiteness is part of validity.
	if math.IsNaN(cp.MeanDefects) || math.IsInf(cp.MeanDefects, 0) || cp.MeanDefects < 0 {
		return fmt.Errorf("defects: mean defect count %v must be finite and non-negative", cp.MeanDefects)
	}
	if math.IsNaN(cp.ClusterSize) || math.IsInf(cp.ClusterSize, 0) || cp.ClusterSize < 1 {
		return fmt.Errorf("defects: cluster size %v must be finite and at least 1", cp.ClusterSize)
	}
	return nil
}

// clusterRate returns the Poisson rate of cluster centers.
func (cp ClusterParams) clusterRate() float64 { return cp.MeanDefects / cp.ClusterSize }

// clusterDecay solves the per-ring geometric decay d of a cluster whose
// ring at radius r holds ringGrowth·r cells (6r on the hexagonal lattice,
// 8r under Chebyshev adjacency on the square lattice): the expected
// cluster size away from the boundary is 1 + ringGrowth·d/(1−d)², so
// ringGrowth·d/(1−d)² = ClusterSize−1 gives the quadratic
// t·d² − (2t+k)·d + t = 0 with t = ClusterSize−1, k = ringGrowth.
func (cp ClusterParams) clusterDecay(ringGrowth float64) float64 {
	t := cp.ClusterSize - 1
	if t <= 0 {
		return 0
	}
	k := ringGrowth
	b := 2*t + k
	return (b - math.Sqrt(b*b-4*t*t)) / (2 * t)
}

// maxClusterRadius is the hard cap on cluster extent; combined with the
// negligible-probability cutoff it bounds the work of one cluster draw.
const maxClusterRadius = 64

// clusterRadius returns the largest ring worth sampling: past it the
// per-cell failure probability d^r drops below 1e-4 and the expected
// contribution of all remaining rings is negligible. The bound depends only
// on the decay, never on random draws, so injection stays deterministic.
func clusterRadius(decay float64) int {
	if decay <= 0 {
		return 0
	}
	r := int(math.Ceil(math.Log(1e-4) / math.Log(decay)))
	if r < 1 {
		r = 1
	}
	if r > maxClusterRadius {
		r = maxClusterRadius
	}
	return r
}

// Clustered draws a clustered fault set over a defect-tolerant array: cluster
// centers are uniform over all cells (primaries and spares alike, matching
// the paper's fault-domain assumption), and each cluster decays geometrically
// over the six-neighbor hexagonal rings around its center. The draw is
// deterministic in the injector's seed and the array, and is one trial of
// ClusteredBatch's walk. It reuses dst when it has matching size (clearing it
// first) to stay allocation-light in Monte-Carlo loops. The returned count is
// the number of clusters seeded.
func (in *Injector) Clustered(arr *layout.Array, cp ClusterParams, dst *FaultSet) (*FaultSet, int, error) {
	if err := cp.validate(); err != nil {
		return dst, 0, err
	}
	dst = in.prepare(arr, dst)
	clusters := in.single(in.hexStencil(arr, cp.clusterDecay(6)), cp.clusterRate(), dst)
	return dst, clusters, nil
}

// ClusteredGrid is the square-lattice sibling of Clustered for arrays that
// are not layout.Arrays (the boundary-spare-row placements of the
// shifted-replacement baseline, indexed densely row-major on a w×h grid).
// Rings are Chebyshev (8r cells at radius r, visited row-major), the natural
// shape of a spot defect on a square-electrode array. The returned count is
// the number of clusters seeded.
func (in *Injector) ClusteredGrid(w, h int, cp ClusterParams, dst *FaultSet) (*FaultSet, int, error) {
	if err := cp.validate(); err != nil {
		return dst, 0, err
	}
	if w <= 0 || h <= 0 {
		return dst, 0, fmt.Errorf("defects: invalid grid %dx%d", w, h)
	}
	numCells := w * h
	if dst == nil || dst.NumCells() != numCells {
		dst = NewFaultSet(numCells)
	} else {
		dst.Clear()
	}
	clusters := in.single(in.squareStencil(w, h, cp.clusterDecay(8)), cp.clusterRate(), dst)
	return dst, clusters, nil
}

// stencil is the precomputed ring walk of clustered injection over one array
// (or square grid) at one per-ring decay. The cluster around cell c visits
// the position-grid slots base[c]+delta[k]: ring r is the next growth·r
// deltas, in hexgrid.Ring order on the hexagonal lattice and row-major on
// the square one. The grid is padded by maxR on every side, so no probe
// needs a bounds check; a slot off the array holds -1.
//
// Every slot of ring r fails with probability q = decay^r, with decay^r
// accumulated ring by ring as a running product. For the j-th slot k of
// ring r, cum[k] = 1−(1−q)^(j+1) is the probability that the next fault
// among the ring's remaining slots falls within j+1 of them. The geometric
// law is memoryless, so the same entries serve every restart within the
// ring.
//
// An Injector keeps one stencil as scratch and rebuilds it only when the
// array, grid size or decay changes; grid, base and delta share one backing
// slice, and cum its own, each reused while large enough.
type stencil struct {
	// The key: the array (nil for a square grid), the unpadded bounding
	// box — a square grid's size — and math.Float64bits of the decay.
	arr       *layout.Array
	w, h      int
	decayBits uint64

	numCells int
	growth   int // ring r holds growth·r positions: 6 hexagonal, 8 square
	maxR     int
	stride   int // row length of the padded grid
	grid     []int32
	base     []int32
	delta    []int32
	buf      []int32
	cum      []float64 // per slot, aligned with delta
}

// hexStencil returns the injector's stencil for hexagonal clusters over arr.
func (in *Injector) hexStencil(arr *layout.Array, decay float64) *stencil {
	st := &in.ring
	if st.arr == arr && st.decayBits == math.Float64bits(decay) {
		return st
	}
	numCells := arr.NumCells()
	first := arr.Cell(0).Pos
	minQ, maxQ, minR, maxR := first.Q, first.Q, first.R, first.R
	for id := 1; id < numCells; id++ {
		p := arr.Cell(layout.CellID(id)).Pos
		minQ, maxQ = min(minQ, p.Q), max(maxQ, p.Q)
		minR, maxR = min(minR, p.R), max(maxR, p.R)
	}
	st.size(arr, numCells, maxQ-minQ+1, maxR-minR+1, 6, decay)
	for id := 0; id < numCells; id++ {
		p := arr.Cell(layout.CellID(id)).Pos
		st.place(id, p.Q-minQ, p.R-minR)
	}
	// Ring r starts r steps south-west of the center and walks one side per
	// direction, the order of hexgrid.Ring.
	k := 0
	for r := 1; r <= st.maxR; r++ {
		cur := hexgrid.Directions[4].Scale(r)
		for _, dir := range hexgrid.Directions {
			for step := 0; step < r; step++ {
				st.delta[k] = int32(cur.R*st.stride + cur.Q)
				k++
				cur = cur.Add(dir)
			}
		}
	}
	return st
}

// squareStencil returns the injector's stencil for Chebyshev clusters over a
// row-major w×h grid.
func (in *Injector) squareStencil(w, h int, decay float64) *stencil {
	st := &in.ring
	if st.arr == nil && st.w == w && st.h == h && st.decayBits == math.Float64bits(decay) {
		return st
	}
	st.size(nil, w*h, w, h, 8, decay)
	for id := 0; id < w*h; id++ {
		st.place(id, id%w, id/w)
	}
	// Ring r row-major: the whole top row, the two ends of each middle row,
	// the whole bottom row.
	k := 0
	for r := 1; r <= st.maxR; r++ {
		for dy := -r; dy <= r; dy++ {
			step := 2 * r
			if dy == -r || dy == r {
				step = 1
			}
			for dx := -r; dx <= r; dx += step {
				st.delta[k] = int32(dy*st.stride + dx)
				k++
			}
		}
	}
	return st
}

// size keys the stencil, lays it out for numCells cells in a w×h bounding
// box and rings of growth·r positions, clears the grid, and fills cum.
// Callers then place every cell and fill delta.
func (st *stencil) size(arr *layout.Array, numCells, w, h, growth int, decay float64) {
	maxR := clusterRadius(decay)
	stride := w + 2*maxR
	slots := stride * (h + 2*maxR)
	rings := growth * maxR * (maxR + 1) / 2
	total := slots + numCells + rings
	if cap(st.buf) < total {
		st.buf = make([]int32, total)
	}
	buf := st.buf[:total]
	st.grid = buf[:slots:slots]
	st.base = buf[slots : slots+numCells : slots+numCells]
	st.delta = buf[slots+numCells:]
	for i := range st.grid {
		st.grid[i] = -1
	}
	st.arr, st.w, st.h, st.decayBits = arr, w, h, math.Float64bits(decay)
	st.numCells, st.growth, st.maxR, st.stride = numCells, growth, maxR, stride
	if cap(st.cum) < rings {
		st.cum = make([]float64, rings)
	}
	st.cum = st.cum[:rings]
	prob, k := 1.0, 0
	for r := 1; r <= maxR; r++ {
		prob *= decay
		survive, healthy := 1-prob, 1.0
		for end := k + growth*r; k < end; k++ {
			healthy *= survive
			st.cum[k] = 1 - healthy
		}
	}
}

// place records cell id at column x, row y of the unpadded bounding box.
func (st *stencil) place(id, x, y int) {
	slot := (y+st.maxR)*st.stride + x + st.maxR
	st.grid[slot] = int32(id)
	st.base[id] = int32(slot)
}

// clusters fills the batch with n clustered-defect trials over the stencil
// at Poisson cluster rate rate. Each trial draws its cluster count, then per
// cluster its center and, ring by ring, where the next fault falls: one
// uniform u picks the first slot j left in the ring with u < cum[j], and a
// u at or above the table entry of the last slot left ends the ring. A
// fault on a slot off the array marks nothing, so every in-array cell of
// ring r still fails independently with probability decay^r, for one draw
// per fault plus one per ring. Trials draw in trial-major order, the order
// in which one-trial calls consume the stream, so a batch and n single
// trials draw identically. It returns the number of clusters seeded across
// the batch.
func (in *Injector) clusters(st *stencil, rate float64, n int, b *TrialBatch) int {
	b.Reset(n)
	src := &in.src
	grid, base, delta, cum, cols := st.grid, st.base, st.delta, st.cum, b.cols
	numCells, growth, maxR := st.numCells, st.growth, st.maxR
	law := newPoissonLaw(rate)
	var occupied uint64
	total := 0
	for t := 0; t < n; t++ {
		bit := uint64(1) << uint(t)
		clusters := in.drawPoisson(law)
		total += clusters
		for c := 0; c < clusters; c++ {
			center := in.rng.Intn(numCells)
			cols[center] |= bit
			occupied |= bit
			// The ring draws go with the cursor in locals; the cluster count
			// and centers above go through the struct.
			at := int(base[center])
			tap, feed := src.tap, src.feed
			// Ring faults leave occupied alone: the center already set it.
			start := 0
			for r := 1; r <= maxR; r++ {
				end := start + growth*r
				// k is the first slot left; a fault j−start slots past it
				// moves k onto the fault, and k++ steps past it.
				for k := start; k < end; k++ {
					var y uint64
					y, tap, feed = src.draw(tap, feed)
					u := uniform(y)
					if u >= cum[start+end-1-k] {
						break // no fault in the end−k slots left
					}
					j := start
					for u >= cum[j] {
						j++
					}
					k += j - start
					if id := grid[at+int(delta[k])]; id >= 0 {
						cols[id] |= bit
					}
				}
				start = end
			}
			src.tap, src.feed = tap, feed
		}
	}
	b.occupied = occupied
	return total
}

// single draws one trial of the stencil's walk into dst, which must be
// cleared and sized for the stencil's cells, through the injector's
// one-trial scratch batch.
func (in *Injector) single(st *stencil, rate float64, dst *FaultSet) int {
	if in.one == nil || in.one.NumCells() != st.numCells {
		in.one = NewTrialBatch(st.numCells)
	}
	clusters := in.clusters(st, rate, 1, in.one)
	for id, col := range in.one.cols {
		if col != 0 {
			dst.MarkFaulty(layout.CellID(id))
		}
	}
	return clusters
}

// Model selects the spatial defect model of a yield trial: the paper's
// independent Bernoulli failures (the zero value) or center-seeded clusters
// with geometric radius decay. Under the clustered model a trial at survival
// probability p targets the same expected defect density (1−p)·N as the
// independent model, so the two are comparable point-for-point along the p
// axis of a sweep.
type Model struct {
	// Clustered selects clustered injection; false means independent
	// Bernoulli failures.
	Clustered bool
	// ClusterSize is the expected cells per cluster (≥ 1); used only when
	// Clustered is set.
	ClusterSize float64
}

// Validate checks the model parameters: a clustered model needs a finite
// cluster size of at least 1.
func (m Model) Validate() error {
	if !m.Clustered {
		return nil
	}
	return ClusterParams{ClusterSize: m.ClusterSize}.validate()
}

// Params converts the model at survival probability p on an array of
// numCells cells to clustered-injection parameters: mean defect count
// (1−p)·numCells at the model's cluster size.
func (m Model) Params(p float64, numCells int) ClusterParams {
	return ClusterParams{MeanDefects: (1 - p) * float64(numCells), ClusterSize: m.ClusterSize}
}
