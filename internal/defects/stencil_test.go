package defects

import (
	"fmt"
	"strings"
	"testing"

	"dmfb/internal/hexgrid"
	"dmfb/internal/layout"
)

// refWalk draws one reference cluster's ring faults by a plain linear scan,
// with no guide table, of the survival-product law: rings holds the
// cluster's ring positions in walk order (layout.NoCell off the array),
// ring r's failing with probability q = decay^r, the running product. The
// slots are cut into blocks whose survival products Π(1 − q) stay at or
// above minSurvival, a slot with q = 1 (or a NaN decay) surviving with
// probability 0. In each block, from the slot after the last fault with p
// the product through it (1 at the block's start), a float draw u gives
// t = (1−u)·p; the next fault is the first slot whose product is below t,
// and a t at or below the block's last product ends the block.
func refWalk(in *Injector, rings [][]layout.CellID, decay float64, dst *FaultSet) {
	var ids []layout.CellID
	var surv []float64
	var ends []int
	prob, s, start := 1.0, 1.0, 0
	for _, ring := range rings {
		prob *= decay
		survive := 1 - prob
		if !(survive > 0) {
			survive = 0
		}
		for _, id := range ring {
			if len(ids) > start && s*survive < minSurvival {
				ends = append(ends, len(ids))
				start, s = len(ids), 1
			}
			s *= survive
			ids, surv = append(ids, id), append(surv, s)
		}
	}
	if len(ids) > start {
		ends = append(ends, len(ids))
	}
	start = 0
	for _, end := range ends {
		for k, p := start, 1.0; ; {
			t := (1 - in.src.float64()) * p
			if t <= surv[end-1] {
				break
			}
			j := k
			for surv[j] >= t {
				j++
			}
			if ids[j] != layout.NoCell {
				dst.MarkFaulty(ids[j])
			}
			k, p = j+1, surv[j]
		}
		start = end
	}
}

// refClustered is the reference hexagonal walk the stencil replaces: each
// cluster re-derives its rings from the center in hexgrid.Ring order,
// probes Array.CellAt at every position, and draws them with refWalk.
func refClustered(in *Injector, arr *layout.Array, cp ClusterParams) (*FaultSet, int) {
	dst := NewFaultSet(arr.NumCells())
	decay := cp.clusterDecay(6)
	maxR := clusterRadius(decay)
	clusters := in.poisson(cp.clusterRate())
	for c := 0; c < clusters; c++ {
		center := layout.CellID(in.rng.Intn(arr.NumCells()))
		dst.MarkFaulty(center)
		pos := arr.Cell(center).Pos
		var rings [][]layout.CellID
		for r := 1; r <= maxR; r++ {
			var ring []layout.CellID
			cur := pos.Add(hexgrid.Directions[4].Scale(r))
			for side := 0; side < 6; side++ {
				for step := 0; step < r; step++ {
					ring = append(ring, arr.CellAt(cur))
					cur = cur.Neighbor(side)
				}
			}
			rings = append(rings, ring)
		}
		refWalk(in, rings, decay, dst)
	}
	return dst, clusters
}

// refClusteredGrid is the reference Chebyshev walk the square stencil
// replaces: it scans all (2r+1)² offsets of ring r row-major, keeps those
// with max(|dx|,|dy|) == r as the ring's positions, off-grid ones included,
// and draws the rings with refWalk.
func refClusteredGrid(in *Injector, w, h int, cp ClusterParams) (*FaultSet, int) {
	numCells := w * h
	dst := NewFaultSet(numCells)
	decay := cp.clusterDecay(8)
	maxR := clusterRadius(decay)
	clusters := in.poisson(cp.clusterRate())
	for c := 0; c < clusters; c++ {
		center := in.rng.Intn(numCells)
		dst.MarkFaulty(layout.CellID(center))
		cx, cy := center%w, center/w
		var rings [][]layout.CellID
		for r := 1; r <= maxR; r++ {
			var ring []layout.CellID
			for dy := -r; dy <= r; dy++ {
				for dx := -r; dx <= r; dx++ {
					if maxAbs(dx, dy) != r {
						continue
					}
					id := layout.NoCell
					if x, y := cx+dx, cy+dy; x >= 0 && x < w && y >= 0 && y < h {
						id = layout.CellID(y*w + x)
					}
					ring = append(ring, id)
				}
			}
			rings = append(rings, ring)
		}
		refWalk(in, rings, decay, dst)
	}
	return dst, clusters
}

// maxAbs returns max(|a|, |b|), the Chebyshev norm of (a, b).
func maxAbs(a, b int) int {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	return max(a, b)
}

// sameStream reports whether the injectors sit at the same stream position.
// It consumes one draw from each, so equal streams stay equal.
func sameStream(ins ...*Injector) bool {
	want := ins[0].rng.Float64()
	same := true
	for _, in := range ins[1:] {
		same = in.rng.Float64() == want && same
	}
	return same
}

// TestDifferentialClusteredStencil pins the stencil walk of Clustered and
// ClusteredBatch to the reference CellAt walk over every design, both
// footprints, three array sizes and cluster sizes from 1 (maxR = 0) through
// clusters wider than the array to the 64-ring cap. One injector per arm
// walks every (array, cluster size) pair boustrophedon — the arrays forward
// at one size and backward at the next — so the stencil is invalidated by a
// new array at the same size, by a new size on the same array, and rebuilt
// onto arrays it served before, and must still match draw for draw.
func TestDifferentialClusteredStencil(t *testing.T) {
	const trials = 20
	sizes := []float64{1, 2, 4, 64, 1024}
	footprints := []struct {
		name  string
		build func(layout.Design, int) (*layout.Array, error)
	}{
		{"parallelogram", layout.BuildWithPrimaryTarget},
		{"hexagon", layout.BuildHexagonWithPrimaryTarget},
	}
	for _, d := range layout.AllDesignsWithVariants() {
		for _, fp := range footprints {
			var arrs []*layout.Array
			for _, n := range []int{6, 60, 240} {
				arr, err := fp.build(d, n)
				if err != nil {
					t.Fatal(err)
				}
				arrs = append(arrs, arr)
			}
			scalarIn, batchIn, ref := NewInjector(21), NewInjector(21), NewInjector(21)
			var fs *FaultSet
			for j, size := range sizes {
				for i := range arrs {
					arr := arrs[i]
					if j%2 == 1 {
						arr = arrs[len(arrs)-1-i]
					}
					name := fmt.Sprintf("%s/%s/cells=%d/size=%g", d.Name, fp.name, arr.NumCells(), size)
					cp := ClusterParams{MeanDefects: 0.05*float64(arr.NumCells()) + 1.5*size, ClusterSize: size}
					b := NewTrialBatch(arr.NumCells())
					batchClusters, err := batchIn.ClusteredBatch(arr, cp, trials, b)
					if err != nil {
						t.Fatal(err)
					}
					b.Finalize()
					refClusters := 0
					for trial := 0; trial < trials; trial++ {
						want, wantClusters := refClustered(ref, arr, cp)
						refClusters += wantClusters
						var got int
						if fs, got, err = scalarIn.Clustered(arr, cp, fs); err != nil {
							t.Fatal(err)
						}
						if got != wantClusters || !sameFaults(fs, want) {
							t.Fatalf("%s trial %d: Clustered drew %d clusters %v, reference %d clusters %v",
								name, trial, got, fs.FaultyCells(), wantClusters, want.FaultyCells())
						}
						if (b.Occupied()>>uint(trial)&1 == 1) != (want.Count() > 0) || (want.Count() > 0 && !rowEquals(b, trial, want)) {
							t.Fatalf("%s trial %d: ClusteredBatch row differs from the reference", name, trial)
						}
					}
					if batchClusters != refClusters {
						t.Fatalf("%s: ClusteredBatch seeded %d clusters, reference %d", name, batchClusters, refClusters)
					}
					if !sameStream(ref, scalarIn, batchIn) {
						t.Fatalf("%s: stream positions diverged from the reference", name)
					}
				}
			}
		}
	}
}

// TestClusteredGridMatchesScan pins ClusteredGrid's square stencil to the
// reference (2r+1)² scan, on grids narrower than, comparable to and wider
// than the cluster extent, with one injector walking the (grid, size) pairs
// boustrophedon as TestDifferentialClusteredStencil does; two grids share a
// width, so the height alone must also invalidate the stencil. Sizes 1e30
// and 1e300 solve to a decay of exactly 1 and to NaN: every ring slot then
// always fails, a block of its own with survival product 0.
func TestClusteredGridMatchesScan(t *testing.T) {
	in, ref := NewInjector(8), NewInjector(8)
	var fs *FaultSet
	grids := [][2]int{{1, 1}, {3, 17}, {18, 12}, {18, 30}, {40, 40}}
	for j, size := range []float64{1, 3, 5, 64, 1e30, 1e300} {
		for i := range grids {
			g := grids[i]
			if j%2 == 1 {
				g = grids[len(grids)-1-i]
			}
			w, h := g[0], g[1]
			cp := ClusterParams{MeanDefects: 0.05*float64(w*h) + 1.5*size, ClusterSize: size}
			for trial := 0; trial < 20; trial++ {
				want, wantClusters := refClusteredGrid(ref, w, h, cp)
				var got int
				var err error
				if fs, got, err = in.ClusteredGrid(w, h, cp, fs); err != nil {
					t.Fatal(err)
				}
				if got != wantClusters || !sameFaults(fs, want) {
					t.Fatalf("%dx%d size=%g trial %d: ClusteredGrid drew %d clusters %v, scan %d clusters %v",
						w, h, size, trial, got, fs.FaultyCells(), wantClusters, want.FaultyCells())
				}
			}
			if !sameStream(in, ref) {
				t.Fatalf("%dx%d size=%g: stream positions diverged from the scan", w, h, size)
			}
		}
	}
}

// TestBatchRejectsMismatchedSize pins the batch-size contract on DTMB(2,6)
// n=60 with batches smaller and larger (one more row word) than the array:
// ClusteredBatch returns an error before any draw, and the Bernoulli
// batches panic with a defects: message.
func TestBatchRejectsMismatchedSize(t *testing.T) {
	arr, err := layout.BuildWithPrimaryTarget(layout.DTMB26(), 60)
	if err != nil {
		t.Fatal(err)
	}
	cp := ClusterParams{MeanDefects: 5, ClusterSize: 4}
	for _, cells := range []int{arr.NumCells() - 10, arr.NumCells() + WordTrials} {
		b := NewTrialBatch(cells)
		in, fresh := NewInjector(5), NewInjector(5)
		if _, err := in.ClusteredBatch(arr, cp, WordTrials, b); err == nil {
			t.Errorf("ClusteredBatch accepted a %d-cell batch for a %d-cell array", cells, arr.NumCells())
		}
		if !sameStream(in, fresh) {
			t.Errorf("rejected %d-cell ClusteredBatch consumed draws", cells)
		}
		samplers := map[string]func(){
			"BernoulliBatch/scan": func() { in.BernoulliBatch(arr.NumCells(), 0.5, WordTrials, b) },
			"BernoulliBatch/skip": func() { in.BernoulliBatch(arr.NumCells(), 0.99, WordTrials, b) },
		}
		for name, sample := range samplers {
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.HasPrefix(msg, "defects:") {
						t.Errorf("%s into a %d-cell batch: panic %q, want a defects: message", name, cells, msg)
					}
				}()
				sample()
			}()
		}
	}
}
