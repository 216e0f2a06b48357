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
	if math.IsNaN(cp.MeanDefects) || cp.MeanDefects < 0 {
		return fmt.Errorf("defects: mean defect count %v must be non-negative", cp.MeanDefects)
	}
	if math.IsNaN(cp.ClusterSize) || cp.ClusterSize < 1 {
		return fmt.Errorf("defects: cluster size %v must be at least 1", cp.ClusterSize)
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
// deterministic in the injector's seed and the array. It reuses dst when it
// has matching size (clearing it first) to stay allocation-light in
// Monte-Carlo loops. The returned count is the number of clusters seeded.
func (in *Injector) Clustered(arr *layout.Array, cp ClusterParams, dst *FaultSet) (*FaultSet, int, error) {
	if err := cp.validate(); err != nil {
		return dst, 0, err
	}
	dst = in.prepare(arr, dst)
	decay := cp.clusterDecay(6)
	maxR := clusterRadius(decay)
	clusters := in.poisson(cp.clusterRate())
	for c := 0; c < clusters; c++ {
		center := layout.CellID(in.rng.Intn(arr.NumCells()))
		dst.MarkFaulty(center)
		pos := arr.Cell(center).Pos
		prob := 1.0
		for r := 1; r <= maxR; r++ {
			prob *= decay
			// Walk the ring in hexgrid.Ring order without materializing it:
			// start r steps south-west, then one ring side per direction.
			cur := pos.Add(hexgrid.Directions[4].Scale(r))
			for side := 0; side < 6; side++ {
				for step := 0; step < r; step++ {
					if id := arr.CellAt(cur); id != layout.NoCell && in.src.float64() < prob {
						dst.MarkFaulty(id)
					}
					cur = cur.Neighbor(side)
				}
			}
		}
	}
	return dst, clusters, nil
}

// ClusteredGrid is the square-lattice sibling of Clustered for arrays that
// are not layout.Arrays (the boundary-spare-row placements of the
// shifted-replacement baseline, indexed densely row-major on a w×h grid).
// Rings are Chebyshev (8r cells at radius r), the natural shape of a spot
// defect on a square-electrode array. The returned count is the number of
// clusters seeded.
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
	decay := cp.clusterDecay(8)
	maxR := clusterRadius(decay)
	clusters := in.poisson(cp.clusterRate())
	for c := 0; c < clusters; c++ {
		center := in.rng.Intn(numCells)
		dst.MarkFaulty(layout.CellID(center))
		cx, cy := center%w, center/w
		prob := 1.0
		for r := 1; r <= maxR; r++ {
			prob *= decay
			// Chebyshev ring: cells with max(|dx|,|dy|) == r, scanned in
			// deterministic row-major order.
			for dy := -r; dy <= r; dy++ {
				for dx := -r; dx <= r; dx++ {
					if maxAbs(dx, dy) != r {
						continue
					}
					x, y := cx+dx, cy+dy
					if x < 0 || x >= w || y < 0 || y >= h {
						continue
					}
					if in.src.float64() < prob {
						dst.MarkFaulty(layout.CellID(y*w + x))
					}
				}
			}
		}
	}
	return dst, clusters, nil
}

// maxAbs returns max(|a|, |b|).
func maxAbs(a, b int) int {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	if a > b {
		return a
	}
	return b
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

// Validate checks the model parameters.
func (m Model) Validate() error {
	if !m.Clustered {
		return nil
	}
	if math.IsNaN(m.ClusterSize) || m.ClusterSize < 1 {
		return fmt.Errorf("defects: cluster size %v must be at least 1", m.ClusterSize)
	}
	return nil
}

// Params converts the model at survival probability p on an array of
// numCells cells to clustered-injection parameters: mean defect count
// (1−p)·numCells at the model's cluster size.
func (m Model) Params(p float64, numCells int) ClusterParams {
	return ClusterParams{MeanDefects: (1 - p) * float64(numCells), ClusterSize: m.ClusterSize}
}
