package reconfig

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"dmfb/internal/defects"
	"dmfb/internal/layout"
)

// screenArrays builds every canonical design at n primaries on both
// footprints, the parallelogram and the hexagon.
func screenArrays(t testing.TB, n int) []*layout.Array {
	t.Helper()
	var arrs []*layout.Array
	for _, d := range layout.AllDesigns() {
		for _, build := range []func(layout.Design, int) (*layout.Array, error){
			layout.BuildWithPrimaryTarget, layout.BuildHexagonWithPrimaryTarget,
		} {
			arr, err := build(d, n)
			if err != nil {
				t.Fatal(err)
			}
			arrs = append(arrs, arr)
		}
	}
	return arrs
}

// TestDifferentialScreenMatchesSolve pins the word-parallel batch screen to
// the per-trial matcher over every canonical design on both footprints, a
// spread of sizes and survival probabilities, Bernoulli and clustered
// batches, and both repair scopes (RepairUsed with a random half of the
// primaries in use). Every trial Screen fails must be infeasible, every
// occupied trial it neither fails nor leaves open must be feasible, and the
// two masks must be disjoint and inside the occupied mask. Across the grid
// the screen must settle trials both ways, so a screen that leaves every
// trial open cannot pass.
func TestDifferentialScreenMatchesSolve(t *testing.T) {
	batches := 8
	if testing.Short() {
		batches = 2
	}
	var settledOK, settledFail int
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{7, 100, 240} {
		for _, arr := range screenArrays(t, n) {
			used := make([]bool, arr.NumCells())
			for _, id := range arr.Primaries() {
				used[id] = rng.Intn(2) == 0
			}
			tb := defects.NewTrialBatch(arr.NumCells())
			for _, opts := range []Options{{}, {Scope: RepairUsed, Used: used}} {
				sess, err := NewSession(arr, opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range []float64{0.5, 0.8, 0.95, 0.99, 0.999} {
					for _, clustered := range []bool{false, true} {
						name := fmt.Sprintf("%s n=%d cells=%d scope=%v p=%v clustered=%v",
							arr.Design().Name, n, arr.NumCells(), opts.Scope, p, clustered)
						in := defects.NewInjector(int64(1000*p) + int64(n))
						for k := 0; k < batches; k++ {
							if clustered {
								cp := defects.Model{Clustered: true, ClusterSize: 4}.Params(p, arr.NumCells())
								if _, err := in.ClusteredBatch(arr, cp, defects.WordTrials, tb); err != nil {
									t.Fatal(err)
								}
							} else {
								in.BernoulliBatch(arr.NumCells(), p, defects.WordTrials, tb)
							}
							occ := tb.Occupied()
							fail, open := sess.Screen(tb.Cols())
							if fail&open != 0 || (fail|open)&^occ != 0 {
								t.Fatalf("%s batch %d: fail %#x, open %#x, occupied %#x: masks overlap or leave the occupied trials",
									name, k, fail, open, occ)
							}
							tb.Finalize()
							for m := occ &^ open; m != 0; m &= m - 1 {
								tr := bits.TrailingZeros64(m)
								ok, err := sess.FeasibleWords(tb.Row(tr))
								if err != nil {
									t.Fatal(err)
								}
								if wantFail := fail&(1<<uint(tr)) != 0; ok == wantFail {
									t.Fatalf("%s batch %d trial %d: screen settled fail=%v, matcher feasible=%v",
										name, k, tr, wantFail, ok)
								}
							}
							settledFail += bits.OnesCount64(fail)
							settledOK += bits.OnesCount64(occ &^ open &^ fail)
						}
					}
				}
			}
		}
	}
	if settledOK == 0 || settledFail == 0 {
		t.Fatalf("screen settled %d feasible and %d infeasible trials over the grid, want both > 0",
			settledOK, settledFail)
	}
}

// TestSessionScreenZeroAllocs pins the steady-state batch screen to zero
// allocations: its per-batch scratch is carved at NewSession.
func TestSessionScreenZeroAllocs(t *testing.T) {
	arr, err := layout.BuildHexagonWithPrimaryTarget(layout.DTMB26(), 100)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(arr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := defects.NewInjector(1)
	tb := defects.NewTrialBatch(arr.NumCells())
	for i := 0; i < 8; i++ {
		in.BernoulliBatch(arr.NumCells(), 0.95, defects.WordTrials, tb)
		sess.Screen(tb.Cols())
	}
	allocs := testing.AllocsPerRun(200, func() {
		in.BernoulliBatch(arr.NumCells(), 0.95, defects.WordTrials, tb)
		sess.Screen(tb.Cols())
	})
	if allocs != 0 {
		t.Fatalf("steady-state Screen allocates %.1f times per run, want 0", allocs)
	}
}

// TestSessionScreenRejectsMismatchedColumns pins the size check.
func TestSessionScreenRejectsMismatchedColumns(t *testing.T) {
	arr, err := layout.BuildWithPrimaryTarget(layout.DTMB16(), 24)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(arr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Screen with a mismatched column plane did not panic")
		}
	}()
	sess.Screen(make([]uint64, arr.NumCells()+1))
}

// screenSink keeps BenchmarkSessionScreen's results live.
var screenSink uint64

// BenchmarkSessionScreen times one Screen over a 64-trial Bernoulli batch
// on the hexagonal n = 240 array, cycling through 16 pre-injected batches.
// Run it with -cpu 1.
func BenchmarkSessionScreen(b *testing.B) {
	for _, d := range []layout.Design{layout.DTMB26(), layout.DTMB44()} {
		arr, err := layout.BuildHexagonWithPrimaryTarget(d, 240)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range []float64{0.95, 0.999} {
			b.Run(fmt.Sprintf("%s/p=%v", d.Name, p), func(b *testing.B) {
				sess, err := NewSession(arr, Options{})
				if err != nil {
					b.Fatal(err)
				}
				in := defects.NewInjector(7)
				ring := make([]*defects.TrialBatch, 16)
				for i := range ring {
					ring[i] = defects.NewTrialBatch(arr.NumCells())
					in.BernoulliBatch(arr.NumCells(), p, defects.WordTrials, ring[i])
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					fail, open := sess.Screen(ring[i%len(ring)].Cols())
					screenSink += fail | open
				}
			})
		}
	}
}
