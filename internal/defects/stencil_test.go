package defects

import (
	"fmt"
	"strings"
	"testing"

	"dmfb/internal/hexgrid"
	"dmfb/internal/layout"
)

// refRing draws one ring of a reference cluster walk by the next-fault
// rule: ring holds the ring's positions in walk order (layout.NoCell off the
// array), each failing with probability q. A float draw u picks the first
// position j left with u < 1−(1−q)^(j+1); a u at or above that bound for
// the last position left ends the ring.
func refRing(in *Injector, ring []layout.CellID, q float64, dst *FaultSet) {
	cum := make([]float64, len(ring))
	healthy := 1.0
	for j := range cum {
		healthy *= 1 - q
		cum[j] = 1 - healthy
	}
	for left := ring; len(left) > 0; {
		u := in.src.float64()
		j := 0
		for j < len(left) && u >= cum[j] {
			j++
		}
		if j == len(left) {
			return
		}
		if id := left[j]; id != layout.NoCell {
			dst.MarkFaulty(id)
		}
		left = left[j+1:]
	}
}

// refClustered is the reference ring walk the stencil replaces: each cluster
// re-derives its rings from the center in hexgrid.Ring order, probes
// Array.CellAt at every position, and draws each ring with refRing at the
// running product decay^r.
func refClustered(in *Injector, arr *layout.Array, cp ClusterParams) (*FaultSet, int) {
	dst := NewFaultSet(arr.NumCells())
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
			var ring []layout.CellID
			cur := pos.Add(hexgrid.Directions[4].Scale(r))
			for side := 0; side < 6; side++ {
				for step := 0; step < r; step++ {
					ring = append(ring, arr.CellAt(cur))
					cur = cur.Neighbor(side)
				}
			}
			refRing(in, ring, prob, dst)
		}
	}
	return dst, clusters
}

// refClusteredGrid is the reference Chebyshev walk the square stencil
// replaces: it scans all (2r+1)² offsets of ring r row-major, keeps those
// with max(|dx|,|dy|) == r as the ring's positions, off-grid ones included,
// and draws the ring with refRing.
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
		prob := 1.0
		for r := 1; r <= maxR; r++ {
			prob *= decay
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
			refRing(in, ring, prob, dst)
		}
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
// width, so the height alone must also invalidate the stencil.
func TestClusteredGridMatchesScan(t *testing.T) {
	in, ref := NewInjector(8), NewInjector(8)
	var fs *FaultSet
	grids := [][2]int{{1, 1}, {3, 17}, {18, 12}, {18, 30}, {40, 40}}
	for j, size := range []float64{1, 3, 5, 64} {
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
