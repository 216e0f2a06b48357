package defects

import (
	"fmt"
	"math/bits"

	"dmfb/internal/layout"
)

// WordTrials is the number of Monte-Carlo trials one TrialBatch packs: one
// trial per bit of a machine word.
const WordTrials = 64

// TrialBatch packs up to 64 fault-injection trials into machine words.
// During injection the batch is column-major — cols[cell] holds one bit per
// trial — so marking a fault is one OR, and the all-healthy screen over the
// whole batch is a single word (Occupied): trials whose bit is clear drew no
// fault anywhere and never need a FaultSet, a matcher, or even a transpose.
// For the trials that did draw faults, Finalize transposes the packed bits
// into row-major per-trial bitsets (Row), the same word layout as
// FaultSet.Words, ready for word-parallel feasibility checks.
//
// A TrialBatch is reused across batches (Reset) and is not safe for
// concurrent use; give each worker its own.
type TrialBatch struct {
	numCells int
	nWords   int // words per trial row: ceil(numCells/64)
	n        int // trials in the current batch, 1..WordTrials
	occupied uint64
	cols     []uint64 // cols[i] bit t = cell i faulty in trial t
	rows     []uint64 // after Finalize: rows[t*nWords+w], trial t's fault words
}

// NewTrialBatch returns a batch sized for arrays of numCells cells. The
// column and row planes share one backing allocation.
func NewTrialBatch(numCells int) *TrialBatch {
	nWords := (numCells + 63) / 64
	buf := make([]uint64, numCells+WordTrials*nWords)
	return &TrialBatch{
		numCells: numCells,
		nWords:   nWords,
		cols:     buf[:numCells:numCells],
		rows:     buf[numCells:],
	}
}

// NumCells returns the array size the batch was built for.
func (b *TrialBatch) NumCells() int { return b.numCells }

// N returns the number of trials in the current batch.
func (b *TrialBatch) N() int { return b.n }

// Reset begins a new batch of n trials (1 ≤ n ≤ WordTrials), clearing every
// column word.
func (b *TrialBatch) Reset(n int) {
	if n < 1 || n > WordTrials {
		panic("defects: batch size out of range")
	}
	b.n = n
	b.occupied = 0
	for i := range b.cols {
		b.cols[i] = 0
	}
}

// checkCells panics unless the batch is sized for numCells cells.
func (b *TrialBatch) checkCells(numCells int) {
	if numCells != b.numCells {
		panic("defects: batch sized for a different cell count")
	}
}

// Occupied returns the trial mask of the batch: bit t is set iff trial t
// drew at least one fault. Its zero bits (below N) are the all-healthy
// trials, screened without ever materializing their fault sets.
func (b *TrialBatch) Occupied() uint64 { return b.occupied }

// Cols returns the batch's column plane: bit t of Cols()[i] is set iff cell
// i is faulty in trial t, and bits at or above N are clear. It is valid
// from injection until the next Reset, needs no Finalize, and callers must
// treat it as read-only.
func (b *TrialBatch) Cols() []uint64 { return b.cols }

// AllHealthy returns the number of trials in the batch that drew no fault.
func (b *TrialBatch) AllHealthy() int { return b.n - bits.OnesCount64(b.occupied) }

// Finalize transposes the packed columns into per-trial row bitsets; call it
// once per batch before Row. A batch with no occupied trial needs no
// transpose and Finalize returns immediately.
func (b *TrialBatch) Finalize() {
	if b.occupied == 0 {
		return
	}
	var tile [WordTrials]uint64
	for w := 0; w < b.nWords; w++ {
		base := w << 6
		span := b.numCells - base
		if span > WordTrials {
			span = WordTrials
		}
		copy(tile[:span], b.cols[base:base+span])
		for i := span; i < WordTrials; i++ {
			tile[i] = 0
		}
		transpose64(&tile)
		for t := 0; t < b.n; t++ {
			b.rows[t*b.nWords+w] = tile[t]
		}
	}
}

// Row returns trial t's fault bitset in FaultSet.Words layout: bit i of
// Row(t)[i/64] is set iff cell i is faulty in trial t. Valid after Finalize
// and until the next Reset; callers must treat it as read-only.
func (b *TrialBatch) Row(t int) []uint64 {
	return b.rows[t*b.nWords : (t+1)*b.nWords : (t+1)*b.nWords]
}

// transpose64 transposes the 64×64 bit matrix a in place, in plain (i, j)
// coordinates: bit j of a[i] moves to bit i of a[j]. It is the
// block-recursive word transpose of Hacker's Delight §7-3, log₂64 rounds of
// masked block swaps, ~250 word ops for the 4096-bit matrix.
func transpose64(a *[WordTrials]uint64) {
	j := 32
	m := uint64(0x00000000FFFFFFFF)
	for j != 0 {
		for k := 0; k < WordTrials; k = (k + j + 1) &^ j {
			t := ((a[k] >> uint(j)) ^ a[k+j]) & m
			a[k] ^= t << uint(j)
			a[k+j] ^= t
		}
		j >>= 1
		m ^= m << uint(j)
	}
}

// BernoulliBatch fills the batch with n independent Bernoulli trials over
// numCells cells at survival probability p: cell i of trial t is marked
// faulty with probability q = 1−p. It picks the sampler by q exactly as
// BernoulliN does, and its PRNG draw order is that of n successive
// BernoulliN calls — trial-major, cell-minor — so a batched estimate
// consumes the identical random stream as the scalar path and reproduces
// it bit for bit (the property the differential suite and the golden
// fixtures pin). It panics unless the batch is sized for numCells.
func (in *Injector) BernoulliBatch(numCells int, p float64, n int, b *TrialBatch) {
	b.checkCells(numCells)
	b.Reset(n)
	q := 1 - p
	switch {
	case q <= 0:
	case q <= skipMaxQ:
		in.skipBatch(q, n, b)
	default:
		in.scanBatch(q, n, b)
	}
}

// scanBatch is the per-cell sampler over a freshly reset batch: one draw per
// cell and trial, and a cell fails iff its uniform is below q, i.e. iff its
// raw 63-bit draw is below below(q). The generator cursor, the column plane
// and the occupancy word stay in locals for the whole batch, and the mark is
// branch-free: at small q a per-cell branch mispredicts on every fault. A
// NaN q gives a zero threshold, so the draws are consumed and nothing is
// marked.
func (in *Injector) scanBatch(q float64, n int, b *TrialBatch) {
	threshold := below(q)
	src := &in.src
	tap, feed := src.tap, src.feed
	cols := b.cols
	var occupied uint64
	for t := 0; t < n; t++ {
		bit := uint64(1) << uint(t)
		for i := range cols {
			var y uint64
			y, tap, feed = src.draw(tap, feed)
			m := bit & -((y - threshold) >> 63) // bit iff y < threshold
			cols[i] |= m
			occupied |= m
		}
	}
	src.tap, src.feed = tap, feed
	b.occupied = occupied
}

// skipBatch is the skip-sampler over a freshly reset batch, for 0 < q < 1:
// each trial jumps from fault to fault by geometric gaps, O(q·numCells)
// draws per trial. The gaps come from the injector's geoTable, rebuilt only
// when q or the cell count changes; they equal source.gap's on every draw.
func (in *Injector) skipBatch(q float64, n int, b *TrialBatch) {
	cols := b.cols
	numCells := len(cols)
	geo := &in.geo
	if geo.q != q || geo.numCells != numCells {
		geo.build(q, numCells)
	}
	src := &in.src
	tap, feed := src.tap, src.feed
	var occupied uint64
	for t := 0; t < n; t++ {
		bit := uint64(1) << uint(t)
		for i := -1; ; {
			var y uint64
			y, tap, feed = src.draw(tap, feed)
			k, ok := geo.lookup(y)
			if !ok {
				k = geo.exact(y)
			}
			if i += 1 + k; i >= numCells {
				break
			}
			cols[i] |= bit
			occupied |= bit
		}
	}
	src.tap, src.feed = tap, feed
	b.occupied = occupied
}

// ClusteredBatch fills the batch with n clustered-defect trials over the
// array, the batched form of Clustered: each trial draws its own Poisson
// cluster count, centers, and ring draws, in exactly the per-trial order of
// n successive Clustered calls, so the batched and scalar paths consume the
// identical PRNG stream. It returns the total number of clusters seeded
// across the batch, or an error, before any draw, when the batch is sized
// for a different cell count than the array's.
func (in *Injector) ClusteredBatch(arr *layout.Array, cp ClusterParams, n int, b *TrialBatch) (int, error) {
	if err := cp.validate(); err != nil {
		return 0, err
	}
	if b.NumCells() != arr.NumCells() {
		return 0, fmt.Errorf("defects: batch sized for %d cells, array has %d", b.NumCells(), arr.NumCells())
	}
	return in.clusters(in.hexStencil(arr, cp.clusterDecay(6)), cp.clusterRate(), n, b), nil
}

// ClusteredGridBatch is the batched form of ClusteredGrid: n clustered-defect
// trials over a row-major w×h grid, drawn in exactly the per-trial order of n
// successive ClusteredGrid calls. It returns the total number of clusters
// seeded across the batch, or an error, before any draw, for an invalid grid
// or a batch sized for a different cell count.
func (in *Injector) ClusteredGridBatch(w, h int, cp ClusterParams, n int, b *TrialBatch) (int, error) {
	if err := cp.validate(); err != nil {
		return 0, err
	}
	if w <= 0 || h <= 0 {
		return 0, fmt.Errorf("defects: invalid grid %dx%d", w, h)
	}
	if b.NumCells() != w*h {
		return 0, fmt.Errorf("defects: batch sized for %d cells, grid has %d", b.NumCells(), w*h)
	}
	return in.clusters(in.squareStencil(w, h, cp.clusterDecay(8)), cp.clusterRate(), n, b), nil
}
