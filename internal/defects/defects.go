// Package defects models manufacturing defects of digital microfluidic
// biochips and injects them into defect-tolerant arrays for yield analysis.
//
// Following the paper (§4) and the analog fault-classification tradition it
// cites, faults are either catastrophic (dielectric breakdown, a short
// between adjacent electrodes, an open in the electrode's control-line
// connection — the cell stops transporting droplets entirely) or parametric
// (geometry deviations: insulator thickness, electrode length, plate gap —
// the cell degrades and counts as faulty only when the deviation exceeds the
// performance tolerance).
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
	"sort"

	"dmfb/internal/layout"
)

// Class separates catastrophic (hard) from parametric (soft) faults.
type Class uint8

const (
	// Catastrophic faults cause complete malfunction of the cell.
	Catastrophic Class = iota
	// Parametric faults degrade performance; they make a cell faulty only
	// when the deviation exceeds the system tolerance.
	Parametric
)

// String names the class.
func (c Class) String() string {
	if c == Parametric {
		return "parametric"
	}
	return "catastrophic"
}

// Kind enumerates the concrete manufacturing defects from the paper.
type Kind uint8

const (
	// DielectricBreakdown shorts droplet and electrode; the droplet
	// electrolyzes and cannot move further.
	DielectricBreakdown Kind = iota
	// ElectrodeShort merges two adjacent electrodes into one long electrode;
	// droplets resting on it cannot overlap a neighbor, so actuation fails
	// on both cells.
	ElectrodeShort
	// OpenConnection breaks the metal line between electrode and control
	// source; the electrode can never be activated.
	OpenConnection
	// InsulatorThicknessDeviation is a parametric deviation of the Parylene C
	// insulator thickness (nominal ~800 nm).
	InsulatorThicknessDeviation
	// ElectrodeLengthDeviation is a parametric deviation of the electrode
	// pitch.
	ElectrodeLengthDeviation
	// PlateGapDeviation is a parametric deviation of the spacing between the
	// top and bottom glass plates.
	PlateGapDeviation
)

// String names the defect kind.
func (k Kind) String() string {
	switch k {
	case DielectricBreakdown:
		return "dielectric-breakdown"
	case ElectrodeShort:
		return "electrode-short"
	case OpenConnection:
		return "open-connection"
	case InsulatorThicknessDeviation:
		return "insulator-thickness-deviation"
	case ElectrodeLengthDeviation:
		return "electrode-length-deviation"
	case PlateGapDeviation:
		return "plate-gap-deviation"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Class returns the fault class the defect kind belongs to.
func (k Kind) Class() Class {
	switch k {
	case InsulatorThicknessDeviation, ElectrodeLengthDeviation, PlateGapDeviation:
		return Parametric
	default:
		return Catastrophic
	}
}

// CatastrophicKinds lists the hard-fault kinds.
func CatastrophicKinds() []Kind {
	return []Kind{DielectricBreakdown, ElectrodeShort, OpenConnection}
}

// ParametricKinds lists the soft-fault kinds.
func ParametricKinds() []Kind {
	return []Kind{InsulatorThicknessDeviation, ElectrodeLengthDeviation, PlateGapDeviation}
}

// Defect is one concrete manufacturing defect instance.
type Defect struct {
	Kind Kind
	// Cell is the afflicted cell.
	Cell layout.CellID
	// Other is the second cell of an ElectrodeShort (NoCell otherwise).
	Other layout.CellID
	// Deviation is the relative parameter deviation of a parametric defect
	// (e.g. +0.30 = 30% over nominal); zero for catastrophic defects.
	Deviation float64
}

// String describes the defect.
func (d Defect) String() string {
	if d.Kind == ElectrodeShort {
		return fmt.Sprintf("%s between cells %d and %d", d.Kind, d.Cell, d.Other)
	}
	if d.Kind.Class() == Parametric {
		return fmt.Sprintf("%s at cell %d (%.1f%%)", d.Kind, d.Cell, d.Deviation*100)
	}
	return fmt.Sprintf("%s at cell %d", d.Kind, d.Cell)
}

// FaultSet records which cells of an array are faulty, plus the defects that
// made them so. Membership is a bitset — one machine word covers 64 cells —
// so clearing, counting, and the all-healthy screen of the Monte-Carlo
// kernel are word-parallel, and the bit pattern itself is the canonical key
// for feasibility memoization (Words, Signature). The zero value is
// unusable; use NewFaultSet.
type FaultSet struct {
	numCells int
	words    []uint64 // bit i of words[i/64] = cell i faulty
	count    int
	defects  []Defect
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

// Clear resets every cell to fault-free and drops the defect list.
func (f *FaultSet) Clear() {
	for i := range f.words {
		f.words[i] = 0
	}
	f.count = 0
	f.defects = f.defects[:0]
}

// IsFaulty reports whether the cell is faulty. The id must be in
// [0, NumCells).
func (f *FaultSet) IsFaulty(id layout.CellID) bool {
	return f.words[id>>6]&(uint64(1)<<(uint(id)&63)) != 0
}

// Words exposes the fault bitset: bit i of Words()[i/64] is set iff cell i
// is faulty. The slice is the set's backing store — callers must treat it
// as read-only and must not retain it across a Clear or re-injection. It is
// the zero-copy currency between batched injection, word-parallel
// feasibility checks, and memoization keys.
func (f *FaultSet) Words() []uint64 { return f.words }

// Signature returns a 64-bit signature of the fault bit pattern, the
// memoization key of reconfig feasibility caching. It depends only on the
// final bit state, never on insertion order. For arrays of at most 64 cells
// the pattern is one word and the signature is a bijection of it (see
// mix64), so distinct fault sets are guaranteed distinct signatures; larger
// arrays chain the per-word mixes, which is collision-resistant but not
// provably injective — exact-match callers compare Words too.
func (f *FaultSet) Signature() uint64 { return SignatureOfWords(f.words) }

// SignatureOfWords is Signature over a raw fault bitset, for callers that
// hold trial words without a FaultSet (the bit-packed trial path).
func SignatureOfWords(words []uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, w := range words {
		h = mix64(h ^ w)
	}
	return h
}

// mix64 is the splitmix64 finalizer: a bijection on 64-bit words with full
// avalanche, so hashing a single word can never collide.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Count returns the number of faulty cells.
func (f *FaultSet) Count() int { return f.count }

// Defects returns the recorded defect instances (may be shorter than Count
// when faults were injected without defect records, e.g. in the fast
// Monte-Carlo path).
func (f *FaultSet) Defects() []Defect { return f.defects }

// AddDefect records a defect and marks its cell(s) faulty.
func (f *FaultSet) AddDefect(d Defect) {
	f.defects = append(f.defects, d)
	f.MarkFaulty(d.Cell)
	if d.Kind == ElectrodeShort && d.Other != layout.NoCell {
		f.MarkFaulty(d.Other)
	}
}

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

// AnyFaultyPrimary reports whether any primary cell of the array is faulty.
// It is the allocation-free form of len(FaultyPrimaries(arr)) > 0 for
// Monte-Carlo trial loops that only need the verdict.
func (f *FaultSet) AnyFaultyPrimary(arr *layout.Array) bool {
	if f.count == 0 {
		return false
	}
	for _, id := range arr.Primaries() {
		if f.IsFaulty(id) {
			return true
		}
	}
	return false
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
// source for the cold draws (Intn, NormFloat64) — two views of one stream,
// never two streams. Its scratch — the FixedCount pool, the clustered ring
// stencil and the one-trial batch of the scalar clustered draws — holds no
// random state, so results depend only on the seed and the calls since. It
// is not safe for concurrent use; give each worker its own Injector (see
// stats.SeedStream).
type Injector struct {
	src source
	rng *rand.Rand // rand.New(&src)
	// pool is the scratch permutation buffer of FixedCount draws, refilled
	// from the domain on every call so results stay independent of call
	// history while the allocation is paid once.
	pool []layout.CellID
	// ring is the clustered injectors' precomputed ring walk, rebuilt only
	// when the array, grid or decay changes (see stencil).
	ring stencil
	// one is the one-trial batch Clustered and ClusteredGrid draw through.
	one *TrialBatch
}

// NewInjector returns an injector with a deterministic PRNG stream.
func NewInjector(seed int64) *Injector {
	in := &Injector{}
	in.src.Seed(seed)
	in.rng = rand.New(&in.src)
	return in
}

// Reseed rewinds the injector onto a fresh deterministic PRNG stream, as if
// newly constructed with NewInjector(seed), while keeping its scratch: the
// FixedCount pool and the clustered ring stencil and batch. The chunked
// Monte-Carlo kernel reseeds one worker-owned injector per chunk instead of
// allocating a new one (the generator state is ~5 KB), so a worker builds
// its ring stencil once per estimate. The seed is used in full: distinct
// 64-bit seeds, such as the chunk seeds of stats.SeedStream, select
// distinct streams.
func (in *Injector) Reseed(seed int64) { in.rng.Seed(seed) }

// skipMaxQ is the largest fault probability q = 1−p at which Bernoulli
// injection skip-samples: below it faults are rare, and jumping from one to
// the next by a geometric gap (one draw and one logarithm per fault) beats
// one draw per cell. Above it the per-cell scan wins. BenchmarkSamplers
// times both on 64-trial batches of DTMB(2,6) with 136 cells. On a 2-vCPU
// Intel Xeon VM (go1.24.0, -cpu 1, median of 8 rounds) scan/skip cost, in
// ns per trial, 382/1568 at p = 0.5, 422/721 at 0.8, 360/366 at 0.9,
// 432/230 at 0.95, 409/89 at 0.99 and 363/32 at 0.999. They cross at
// q ≈ 0.1; a finer run put the crossover between q = 0.10 and 0.12.
const skipMaxQ = 0.1

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
	dst = in.prepare(arr, dst)
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
	// Partial Fisher-Yates: draw m distinct cells.
	for i := 0; i < m; i++ {
		j := i + in.rng.Intn(len(pool)-i)
		pool[i], pool[j] = pool[j], pool[i]
		dst.MarkFaulty(pool[i])
	}
	return dst, nil
}

// CatalogParams tunes defect-catalog generation.
type CatalogParams struct {
	// Lambda is the expected number of defects on the array.
	Lambda float64
	// ParametricShare is the fraction of defects that are parametric.
	ParametricShare float64
	// Tolerance is the relative deviation above which a parametric defect
	// makes its cell faulty (e.g. 0.15 = 15%).
	Tolerance float64
	// DeviationSigma is the standard deviation of parametric deviations.
	DeviationSigma float64
}

// DefaultCatalogParams returns parameters producing a realistic mixed-defect
// population: mostly catastrophic spot defects with a parametric tail.
func DefaultCatalogParams(lambda float64) CatalogParams {
	return CatalogParams{
		Lambda:          lambda,
		ParametricShare: 0.35,
		Tolerance:       0.15,
		DeviationSigma:  0.12,
	}
}

// Catalog draws a full defect catalog: a Poisson(λ) number of spot defects,
// each assigned a kind, location, and (for parametric defects) a Gaussian
// deviation checked against the tolerance. Cells become faulty for every
// catastrophic defect and for parametric defects beyond tolerance; a
// sub-tolerance parametric defect is recorded but leaves the cell usable.
func (in *Injector) Catalog(arr *layout.Array, params CatalogParams) (*FaultSet, []Defect) {
	fs := NewFaultSet(arr.NumCells())
	n := in.poisson(params.Lambda)
	var subTolerance []Defect
	for i := 0; i < n; i++ {
		cell := layout.CellID(in.rng.Intn(arr.NumCells()))
		if in.src.float64() < params.ParametricShare {
			kinds := ParametricKinds()
			d := Defect{
				Kind:      kinds[in.rng.Intn(len(kinds))],
				Cell:      cell,
				Other:     layout.NoCell,
				Deviation: in.rng.NormFloat64() * params.DeviationSigma,
			}
			if abs(d.Deviation) > params.Tolerance {
				fs.AddDefect(d)
			} else {
				subTolerance = append(subTolerance, d)
			}
			continue
		}
		kinds := CatastrophicKinds()
		d := Defect{Kind: kinds[in.rng.Intn(len(kinds))], Cell: cell, Other: layout.NoCell}
		if d.Kind == ElectrodeShort {
			nbrs := arr.Neighbors(cell)
			if len(nbrs) > 0 {
				d.Other = nbrs[in.rng.Intn(len(nbrs))]
			}
		}
		fs.AddDefect(d)
	}
	sort.Slice(subTolerance, func(i, j int) bool { return subTolerance[i].Cell < subTolerance[j].Cell })
	return fs, subTolerance
}

// poisson draws from Poisson(lambda). Knuth's product method underflows once
// exp(−λ) leaves float64 range (λ ≳ 745), silently capping the draw near
// 750, so large rates are split into independent chunks first —
// Poisson(a+b) = Poisson(a) + Poisson(b) — keeping the sampler exact at the
// array-scale rates the clustered-defect model produces.
func (in *Injector) poisson(lambda float64) int {
	const chunk = 256 // exp(-256) ≈ 1.5e-111, far from underflow
	k := 0
	for lambda > chunk {
		k += in.poissonKnuth(chunk)
		lambda -= chunk
	}
	return k + in.poissonKnuth(lambda)
}

// poissonKnuth draws from Poisson(lambda) by Knuth's product method; lambda
// must be small enough that exp(−lambda) is comfortably representable.
func (in *Injector) poissonKnuth(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
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

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
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
