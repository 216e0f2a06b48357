// Package defects models manufacturing defects of digital microfluidic
// biochips and injects them into defect-tolerant arrays for yield analysis.
//
// Following the paper (§4), a cell is faulty when it suffers a catastrophic
// defect (dielectric breakdown, an electrode short, an open control line)
// or a parametric deviation beyond the performance tolerance; the yield
// model needs only that binary outcome, not the defect's cause.
//
// The yield analysis assumption of the paper is implemented directly: every
// cell, primary or spare, fails independently with the same probability
// q = 1 − p (Bernoulli mode), or exactly m distinct cells fail (fixed-count
// mode, used by the case-study experiment of Fig. 13). Beyond the paper's
// independence assumption, clustered.go models spatially correlated
// manufacturing defects: center-seeded clusters with geometric radius decay
// (Clustered for hexagonal-lattice arrays, ClusteredGrid for the square
// grids of the shifted-replacement baseline), selected via Model.
package defects

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"dmfb/internal/layout"
)

// FaultSet records which cells of an array are faulty. Membership is a bitset — one machine word covers 64 cells —
// so clearing, counting, and the all-healthy screen of the Monte-Carlo
// kernel are word-parallel, and the bit pattern (Words) goes straight to
// the feasibility check. The zero value is unusable; use NewFaultSet.
type FaultSet struct {
	numCells int
	words    []uint64 // bit i of words[i/64] = cell i faulty
	count    int
}

// NewFaultSet returns an empty fault set for an array with numCells cells.
func NewFaultSet(numCells int) *FaultSet {
	return &FaultSet{numCells: numCells, words: make([]uint64, (numCells+63)/64)}
}

// NumCells returns the size of the underlying array.
func (f *FaultSet) NumCells() int { return f.numCells }

// MarkFaulty marks a cell faulty. Marking twice is a no-op.
func (f *FaultSet) MarkFaulty(id layout.CellID) {
	if uint(id) >= uint(f.numCells) {
		panic("defects: cell id out of range")
	}
	w, bit := id>>6, uint64(1)<<(uint(id)&63)
	if f.words[w]&bit == 0 {
		f.words[w] |= bit
		f.count++
	}
}

// Clear resets every cell to fault-free.
func (f *FaultSet) Clear() {
	for i := range f.words {
		f.words[i] = 0
	}
	f.count = 0
}

// IsFaulty reports whether the cell is faulty. The id must be in
// [0, NumCells).
func (f *FaultSet) IsFaulty(id layout.CellID) bool {
	return f.words[id>>6]&(uint64(1)<<(uint(id)&63)) != 0
}

// Words exposes the fault bitset: bit i of Words()[i/64] is set iff cell i
// is faulty. The slice is the set's backing store — callers must treat it
// as read-only and must not retain it across a Clear or re-injection. It is
// the zero-copy currency between batched injection and word-parallel
// feasibility checks.
func (f *FaultSet) Words() []uint64 { return f.words }

// Count returns the number of faulty cells.
func (f *FaultSet) Count() int { return f.count }

// FaultyCells returns the faulty cell IDs in ascending order.
func (f *FaultSet) FaultyCells() []layout.CellID {
	out := make([]layout.CellID, 0, f.count)
	for w, word := range f.words {
		for ; word != 0; word &= word - 1 {
			out = append(out, layout.CellID(w<<6+bits.TrailingZeros64(word)))
		}
	}
	return out
}

// FaultyPrimaries returns the faulty cells of the array that are primaries,
// ascending.
func (f *FaultSet) FaultyPrimaries(arr *layout.Array) []layout.CellID {
	var out []layout.CellID
	for _, id := range arr.Primaries() {
		if f.IsFaulty(id) {
			out = append(out, id)
		}
	}
	return out
}

// FaultySpares returns the faulty cells of the array that are spares,
// ascending.
func (f *FaultSet) FaultySpares(arr *layout.Array) []layout.CellID {
	var out []layout.CellID
	for _, id := range arr.Spares() {
		if f.IsFaulty(id) {
			out = append(out, id)
		}
	}
	return out
}

// Injector draws random fault sets. Its PRNG stream is a pure function of
// the seed, drawn from one embedded source: the injection loops call it
// directly, without the rand.Source interface, and rng wraps the same
// source for the cold Intn draws — two views of one stream, never two
// streams. Its scratch — the fixed-count pool, the clustered ring
// stencil, the one-trial batch of the scalar clustered draws and the
// skip-sampler's gap table — holds no random state, so results depend only
// on the seed and the calls since. It is not safe for concurrent use; give
// each worker its own Injector (see stats.SeedStream).
type Injector struct {
	src source
	rng rand.Rand // *rand.New(&src), held by value: one allocation per injector
	// pool is the scratch permutation buffer of fixed-count draws, refilled
	// from the domain for every trial so results stay independent of call
	// history while the allocation is paid once.
	pool []layout.CellID
	// ring is the clustered injectors' precomputed ring stencil, rebuilt
	// only when the array, grid or decay changes (see stencil).
	ring stencil
	// one is the one-trial batch Clustered and ClusteredGrid draw through.
	one *TrialBatch
	// geo is the skip-sampler's gap table, rebuilt only when the fault
	// probability or the cell count changes.
	geo geoTable
}

// NewInjector returns an injector with a deterministic PRNG stream.
func NewInjector(seed int64) *Injector {
	in := &Injector{}
	in.src.Seed(seed)
	in.rng = *rand.New(&in.src)
	return in
}

// Reseed rewinds the injector onto a fresh deterministic PRNG stream, as if
// newly constructed with NewInjector(seed), while keeping its scratch: the
// FixedCount pool, the clustered ring stencil and batch, and the gap table.
// The chunked Monte-Carlo kernel reseeds one worker-owned injector per chunk
// instead of allocating a new one (the generator state is ~5 KB), so a
// worker builds its ring stencil or gap table once per estimate. The seed
// is used in full: distinct 64-bit seeds, such as the chunk seeds of
// stats.SeedStream, select distinct streams.
func (in *Injector) Reseed(seed int64) { in.rng.Seed(seed) }

// skipMaxQ is the largest fault probability q = 1−p at which Bernoulli
// injection skip-samples: below it faults are rare enough that jumping from
// one to the next by a geometric gap (one draw and one gap-table lookup per
// fault, geotable.go) beats one draw per cell. Above it the per-cell scan
// runs. BenchmarkSamplers times both on 64-trial batches of DTMB(2,6) with
// 136 cells. On a 2-vCPU Intel Xeon VM (go1.24.0, -cpu 1, medians of 6 to
// 13 rounds) scan/skip cost, in ns per trial, 488/590 at p = 0.5, 626/714
// at 0.55, 613/611 at 0.58, 544/540 at 0.6, 567/539 at 0.62, 538/469 at
// 0.65, 562/450 at 0.7, 608/304 at 0.8 and 479/156 at 0.9 (the scan's
// spread, flat in p, is the shared machine's): they cross at q ≈ 0.4.
const skipMaxQ = 0.4

// Bernoulli marks every cell of the array faulty independently with
// probability q = 1−p, the paper's yield-analysis assumption. It reuses dst
// when non-nil (clearing it first) to avoid allocation in Monte-Carlo loops.
func (in *Injector) Bernoulli(arr *layout.Array, p float64, dst *FaultSet) *FaultSet {
	return in.BernoulliN(arr.NumCells(), p, dst)
}

// BernoulliN marks each of numCells generically indexed cells faulty
// independently with probability q = 1−p. It is the structure-agnostic
// sibling of Bernoulli for arrays that are not layout.Arrays (e.g. the
// square-grid spare-row placements of the shifted-replacement baseline,
// whose cells are identified by their dense row-major index). It reuses dst
// when it has matching size (clearing it first) to avoid allocation in
// Monte-Carlo loops.
//
// The sampler follows q: at q ≤ skipMaxQ it draws the gaps between faults
// (O(q·numCells) draws), otherwise one coin per cell. NaN takes the
// per-cell path, whose comparisons never fire: it consumes the draws and
// marks nothing.
func (in *Injector) BernoulliN(numCells int, p float64, dst *FaultSet) *FaultSet {
	if dst == nil || dst.NumCells() != numCells {
		dst = NewFaultSet(numCells)
	} else {
		dst.Clear()
	}
	q := 1 - p
	switch {
	case q <= 0:
	case q <= skipMaxQ:
		lnSurvive, end := math.Log1p(-q), float64(numCells)
		for i := in.src.gap(lnSurvive); i < end; i += 1 + in.src.gap(lnSurvive) {
			dst.MarkFaulty(layout.CellID(i))
		}
	default:
		for i := 0; i < numCells; i++ {
			if in.src.float64() < q {
				dst.MarkFaulty(layout.CellID(i))
			}
		}
	}
	return dst
}

// Domain selects which cells fixed-count injection may hit.
type Domain uint8

const (
	// AllCells lets faults strike primaries and spares alike (the paper's
	// stated assumption: "the cells in the microfluidic array, including
	// both primary and spare cells, are randomly chosen to fail").
	AllCells Domain = iota
	// PrimariesOnly restricts faults to primary cells, an ablation policy
	// for the case-study experiment.
	PrimariesOnly
)

// String names the domain.
func (d Domain) String() string {
	if d == PrimariesOnly {
		return "primaries-only"
	}
	return "all-cells"
}

// FixedCount marks exactly m distinct cells faulty, drawn uniformly from the
// domain. It returns an error if m exceeds the domain size. The draw buffer
// is the injector's cached pool, refilled from the domain each call: the
// sequence of faults for a given seed is exactly what a freshly allocated
// pool would produce, but steady-state Monte-Carlo loops allocate nothing.
func (in *Injector) FixedCount(arr *layout.Array, m int, domain Domain, dst *FaultSet) (*FaultSet, error) {
	pool, err := in.fixedPool(arr, m, domain)
	if err != nil {
		return nil, err
	}
	dst = in.prepare(arr, dst)
	// Partial Fisher-Yates: draw m distinct cells.
	for i := 0; i < m; i++ {
		j := i + in.rng.Intn(len(pool)-i)
		pool[i], pool[j] = pool[j], pool[i]
		dst.MarkFaulty(pool[i])
	}
	return dst, nil
}

// fixedPool validates a fixed-count draw of m faults from the domain and
// returns the injector's cached pool refilled with the domain's cells in
// ascending order, the start state of every draw.
func (in *Injector) fixedPool(arr *layout.Array, m int, domain Domain) ([]layout.CellID, error) {
	var pool []layout.CellID
	switch domain {
	case AllCells:
		pool = in.poolOf(arr.NumCells())
		for i := range pool {
			pool[i] = layout.CellID(i)
		}
	case PrimariesOnly:
		pool = in.poolOf(len(arr.Primaries()))
		copy(pool, arr.Primaries())
	default:
		return nil, fmt.Errorf("defects: unknown domain %d", domain)
	}
	if m < 0 || m > len(pool) {
		return nil, fmt.Errorf("defects: cannot fail %d of %d cells", m, len(pool))
	}
	return pool, nil
}

// poissonChunk is the largest rate Knuth's product method draws at once.
// The method underflows once exp(−λ) leaves float64 range (λ ≳ 745),
// silently capping the draw near 750, so a larger rate is split into
// independent chunks first — Poisson(a+b) = Poisson(a) + Poisson(b) —
// keeping the sampler exact at the array-scale rates the clustered-defect
// model produces. exp(−256) ≈ 1.5e-111 is far from underflow.
const poissonChunk = 256

// expNegChunk is Knuth's stopping product for one whole chunk.
var expNegChunk = math.Exp(-poissonChunk)

// poissonLaw is Poisson(lambda) prepared for repeated draws: the whole
// chunks of the rate and the stopping product exp(−tail) of the rest, so a
// batch of trials at one rate pays for math.Exp once.
type poissonLaw struct {
	chunks  int     // Poisson(poissonChunk) terms
	tail    float64 // the rest of the rate; no term when ≤ 0
	expTail float64 // exp(−tail)
}

func newPoissonLaw(lambda float64) poissonLaw {
	law := poissonLaw{}
	for lambda > poissonChunk {
		law.chunks++
		lambda -= poissonChunk
	}
	law.tail, law.expTail = lambda, math.Exp(-lambda)
	return law
}

// drawPoisson draws one count from the law.
func (in *Injector) drawPoisson(law poissonLaw) int {
	k := 0
	for c := 0; c < law.chunks; c++ {
		k += in.poissonKnuth(expNegChunk)
	}
	if law.tail > 0 {
		k += in.poissonKnuth(law.expTail)
	}
	return k
}

// poissonKnuth draws from Poisson(λ) by Knuth's product method, given its
// stopping product l = exp(−λ) for a λ small enough that l is comfortably
// representable.
func (in *Injector) poissonKnuth(l float64) int {
	k := 0
	p := 1.0
	for {
		p *= in.src.float64()
		if p <= l {
			return k
		}
		k++
	}
}

// poolOf returns the injector's cached draw buffer resliced to size,
// reallocating only on growth. Contents are stale; callers refill it.
func (in *Injector) poolOf(size int) []layout.CellID {
	if cap(in.pool) < size {
		in.pool = make([]layout.CellID, size)
	}
	in.pool = in.pool[:size]
	return in.pool
}

func (in *Injector) prepare(arr *layout.Array, dst *FaultSet) *FaultSet {
	if dst == nil || dst.NumCells() != arr.NumCells() {
		return NewFaultSet(arr.NumCells())
	}
	dst.Clear()
	return dst
}
