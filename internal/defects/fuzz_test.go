package defects

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"dmfb/internal/layout"
)

// FuzzFaultSetMarkFaulty fuzzes the properties the word-parallel
// feasibility check rests on: a fault set's Words are exactly the marked
// bit pattern, whatever order the cells were marked in and however often
// each was marked, and Count is that pattern's population count. Both a
// one-word (64-cell) and a two-word (128-cell) set are checked. Corpus
// seeds run in plain `go test`; `go test -fuzz FuzzFaultSetMarkFaulty`
// explores further.
func FuzzFaultSetMarkFaulty(f *testing.F) {
	f.Add(uint64(0), uint64(1), int64(1))
	f.Add(uint64(1), uint64(2), int64(7))
	f.Add(^uint64(0), ^uint64(0)>>1, int64(42))
	f.Add(uint64(0x8000000000000001), uint64(0x0000000180000000), int64(-3))
	f.Add(uint64(0xAAAAAAAAAAAAAAAA), uint64(0x5555555555555555), int64(99))
	f.Fuzz(func(t *testing.T, a, b uint64, permSeed int64) {
		rng := rand.New(rand.NewSource(permSeed))
		for _, want := range [][]uint64{{a}, {a, b}} {
			numCells := 64 * len(want)
			ordered := fromBits(numCells, want, nil)
			// Re-mark the same cells in a shuffled order with duplicates,
			// which MarkFaulty must absorb.
			shuffled := fromBits(numCells, want, rng)
			for _, fs := range []*FaultSet{ordered, shuffled} {
				if !slices.Equal(fs.Words(), want) {
					t.Fatalf("%d cells: Words %#x, marked %#x", numCells, fs.Words(), want)
				}
			}
			pop := 0
			for _, w := range want {
				pop += bits.OnesCount64(w)
			}
			if ordered.Count() != pop || shuffled.Count() != pop {
				t.Fatalf("%d cells: Count ordered %d, shuffled %d, want %d",
					numCells, ordered.Count(), shuffled.Count(), pop)
			}
		}
	})
}

// fromBits builds a fault set over numCells cells whose faulty cells are the
// set bits of pattern (bit i of pattern[i/64] = cell i), marking them in
// ascending order, or — when rng is non-nil — in a shuffled order with each
// cell marked one extra time.
func fromBits(numCells int, pattern []uint64, rng *rand.Rand) *FaultSet {
	fs := NewFaultSet(numCells)
	var ids []layout.CellID
	for i := 0; i < numCells; i++ {
		if pattern[i>>6]>>uint(i&63)&1 == 1 {
			ids = append(ids, layout.CellID(i))
		}
	}
	if rng != nil {
		ids = append(ids, ids...) // duplicates must be no-ops
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	}
	for _, id := range ids {
		fs.MarkFaulty(id)
	}
	return fs
}
