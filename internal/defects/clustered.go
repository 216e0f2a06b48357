package defects

import (
	"fmt"
	"math"
	"math/bits"

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
	// Far past any physical size the decay's quadratic loses the size to
	// rounding: the decay reaches exactly 1 (by about 1e20) and, once b·b
	// overflows (about 1e154), NaN, and the cluster silently shrinks to its
	// center's first ring. Both lattices' ring growths must leave a decay
	// strictly below 1.
	for _, growth := range []float64{6, 8} {
		if d := cp.clusterDecay(growth); !(d < 1) {
			return fmt.Errorf("defects: cluster size %v is too large: its ring decay is %v, not below 1", cp.ClusterSize, d)
		}
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

// stencil is the precomputed cluster walk of clustered injection over one
// array (or square grid) at one per-ring decay. The cluster around cell c
// visits the position-grid slots base[c]+delta[j]: ring r is the next
// growth·r deltas, in hexgrid.Ring order on the hexagonal lattice and
// row-major on the square one. The grid is padded by maxR on every side, so
// no probe needs a bounds check; a slot off the array holds -1.
//
// Every slot of ring r fails independently with probability q = decay^r,
// with decay^r accumulated ring by ring as a running product. The slots are
// cut into blocks of consecutive slots, and surv[j] is the survival product
// Π(1 − q_i) over the slots i from j's block start through j: the
// probability that none of them fails. A block ends before the slot that
// would take its product below minSurvival, so no product underflows (a
// slot that always fails, q = 1, is a block of its own with surv 0). The
// walk draws by inverse transform over these products (see clusters), and
// each block's guide table finds the slot a draw lands on without a scan
// from the start: blocks holds, per block, its end, the offset of its guide
// in guide, and the guide's shift.
//
// An Injector keeps one stencil as scratch and rebuilds it only when the
// array, grid size or decay changes; grid, base, delta, guide and blocks
// share one backing slice, and surv its own, each reused while large enough.
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
	guide    []int32
	blocks   []int32 // per block: end, guide offset, shift
	buf      []int32
	surv     []float64 // per slot, aligned with delta
}

// minSurvival is the smallest survival product a block may hold. A draw
// scales a product by 1 − u ≥ 2⁻⁵⁴, so every compared value stays a normal
// float64.
const minSurvival = 0x1p-900

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
// box and rings of growth·r positions, clears the grid, and fills surv,
// guide and blocks. Callers then place every cell and fill delta.
func (st *stencil) size(arr *layout.Array, numCells, w, h, growth int, decay float64) {
	maxR := clusterRadius(decay)
	stride := w + 2*maxR
	slots := stride * (h + 2*maxR)
	rings := growth * maxR * (maxR + 1) / 2
	st.growth, st.maxR = growth, maxR
	if cap(st.surv) < rings {
		st.surv = make([]float64, rings)
	}
	st.surv = st.surv[:rings]
	st.survival(decay)
	numBlocks, guides := 0, 0
	st.eachBlock(func(start, end int) {
		_, n := st.guideShape(start, end)
		numBlocks, guides = numBlocks+1, guides+n
	})
	total := slots + numCells + rings + guides + 3*numBlocks
	if cap(st.buf) < total {
		st.buf = make([]int32, total)
	}
	buf := st.buf[:total]
	st.grid, buf = buf[:slots:slots], buf[slots:]
	st.base, buf = buf[:numCells:numCells], buf[numCells:]
	st.delta, buf = buf[:rings:rings], buf[rings:]
	st.guide, st.blocks = buf[:guides:guides], buf[guides:]
	off, i := 0, 0
	st.eachBlock(func(start, end int) {
		shift, n := st.guideShape(start, end)
		st.fillGuide(start, end, shift, st.guide[off:off+n])
		st.blocks[i], st.blocks[i+1], st.blocks[i+2] = int32(end), int32(off), int32(shift)
		off, i = off+n, i+3
	})
	for i := range st.grid {
		st.grid[i] = -1
	}
	st.arr, st.w, st.h, st.decayBits = arr, w, h, math.Float64bits(decay)
	st.numCells, st.stride = numCells, stride
}

// survival fills surv for the stencil's rings at the given decay: each
// slot's product runs on from its predecessor's, and restarts at the slot's
// own 1 − q wherever running on would fall below minSurvival.
func (st *stencil) survival(decay float64) {
	surv := st.surv
	prob, k, s := 1.0, 0, 1.0
	for r := 1; r <= st.maxR; r++ {
		prob *= decay
		survive := 1 - prob
		if !(survive > 0) {
			survive = 0 // q = 1, or a NaN decay: the slot always fails
		}
		for end := k + st.growth*r; k < end; k++ {
			if s *= survive; s < minSurvival && k > 0 {
				s = survive
			}
			surv[k] = s
		}
	}
}

// eachBlock calls visit with the slots [start, end) of each block of surv in
// order. A block starts at slot 0 and wherever the product rises or is 0.
// Within a block it never rises and stays at or above minSurvival. At a
// restart it is the slot's own 1 − q: 0 when the slot always fails, and
// otherwise at least 2⁻⁵³ (q ≤ decay < 1), above a predecessor that fell
// short of minSurvival/(1 − q) ≤ 2⁻⁸⁴⁷.
func (st *stencil) eachBlock(visit func(start, end int)) {
	surv, start := st.surv, 0
	for k := 1; k < len(surv); k++ {
		if surv[k] > surv[k-1] || surv[k] == 0 {
			visit(start, k)
			start = k
		}
	}
	if len(surv) > 0 {
		visit(start, len(surv))
	}
}

// guideShape sizes the guide table of the block [start, end). The walk
// looks it up only for draws t in (surv[end−1], 1], at bucket
// (Float64bits(t) − Float64bits(surv[end−1])) >> shift; shift makes the n
// buckets at most twice the block's slots.
func (st *stencil) guideShape(start, end int) (shift uint, n int) {
	span := math.Float64bits(1) - math.Float64bits(st.surv[end-1])
	shift = uint(max(0, bits.Len64(span)-bits.Len(uint(end-start))))
	return shift, int(span>>shift) + 1
}

// fillGuide fills the guide table g of the block [start, end): g[b] is the
// first slot whose product lies below the largest draw of bucket b, so every
// earlier slot's product is at or above each draw of the bucket, and the
// search for the first product below a draw can start at g[b]. Slot j's
// product is at or above the largest draw of each bucket below
// (Float64bits(surv[j]) − lo + 1) >> shift. The table stops at end−1, whose
// product lies below every draw looked up.
func (st *stencil) fillGuide(start, end int, shift uint, g []int32) {
	surv := st.surv[:end]
	lo := math.Float64bits(surv[end-1])
	b := len(g)
	for j := start; j < end-1; j++ {
		for above := int((math.Float64bits(surv[j]) - lo + 1) >> shift); b > above; {
			b--
			g[b] = int32(j)
		}
	}
	for b > 0 {
		b--
		g[b] = int32(end - 1)
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
// cluster its center and, by inverse transform over the survival products,
// where each next fault falls among all the slots left in the block. From
// the slot after the last fault, with p the product through that fault (1
// at the block's start), the next fault is the first slot j whose product
// surv[j] lies below t = (1−u)·p for a fresh uniform u; a t at or below the
// block's last product means no fault in the rest of the block, and the walk
// moves on to the next block. P(no fault through j) = surv[j]/p, so every
// slot fails independently with its ring's q = decay^r, for one draw per
// fault plus one per block. A fault on a slot off the array marks nothing.
// Trials draw in trial-major order, the order in which one-trial calls
// consume the stream, so a batch and n single trials draw identically. It
// returns the number of clusters seeded across the batch.
func (in *Injector) clusters(st *stencil, rate float64, n int, b *TrialBatch) int {
	b.Reset(n)
	src := &in.src
	grid, base, delta, surv, guide, blocks, cols := st.grid, st.base, st.delta, st.surv, st.guide, st.blocks, b.cols
	numCells := st.numCells
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
			// The walk's draws go with the cursor in locals; the cluster
			// count and centers above go through the struct.
			at := int(base[center])
			tap, feed := src.tap, src.feed
			// Ring faults leave occupied alone: the center already set it.
			for i := 0; i+2 < len(blocks); i += 3 {
				last := surv[blocks[i]-1]
				lo, g, shift := math.Float64bits(last), guide[blocks[i+1]:], uint(blocks[i+2])
				for p := 1.0; ; {
					var y uint64
					y, tap, feed = src.draw(tap, feed)
					t := (1 - uniform(y)) * p
					if t <= last {
						break // no fault in the rest of the block
					}
					j := int(g[(math.Float64bits(t)-lo)>>shift])
					for surv[j] >= t {
						j++
					}
					if id := grid[at+int(delta[j])]; id >= 0 {
						cols[id] |= bit
					}
					p = surv[j]
				}
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
