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
// two masks must be disjoint and inside the occupied mask. Every DTMB(1,6)
// batch must come back with nothing open: each of its primaries has at most
// one spare, so the target rule decides every trial. Across the grid the
// screen must settle trials both ways, so a screen that leaves every trial
// open cannot pass, and at p >= 0.95 it may leave at most 2% of occupied
// trials open (it leaves about 0.5%; without the peeling rounds' spare
// rule, about 9%).
func TestDifferentialScreenMatchesSolve(t *testing.T) {
	batches := 8
	if testing.Short() {
		batches = 2
	}
	var settledOK, settledFail, occHigh, openHigh int
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
							if arr.Design().Name == layout.DTMB16().Name && open != 0 {
								t.Fatalf("%s batch %d: open %#x, want every DTMB(1,6) trial decided",
									name, k, open)
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
							if p >= 0.95 {
								occHigh += bits.OnesCount64(occ)
								openHigh += bits.OnesCount64(open)
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
	if openHigh*50 > occHigh {
		t.Fatalf("at p >= 0.95 the screen left %d of %d occupied trials open, want at most 2%%",
			openHigh, occHigh)
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

// BenchmarkSessionScreen times one Screen over a 64-trial batch on the
// hexagonal n = 240 array, cycling through 16 pre-injected batches:
// Bernoulli at two survival probabilities, and clustered (size 4) at
// p = 0.95, where the screen leaves the most trials to peel. open/op is
// the mean number of trials per batch left to the matcher. Run it with
// -cpu 1.
func BenchmarkSessionScreen(b *testing.B) {
	for _, d := range []layout.Design{layout.DTMB26(), layout.DTMB44()} {
		arr, err := layout.BuildHexagonWithPrimaryTarget(d, 240)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range []struct {
			name      string
			p         float64
			clustered bool
		}{{"p=0.95", 0.95, false}, {"p=0.999", 0.999, false}, {"clustered/p=0.95", 0.95, true}} {
			b.Run(d.Name+"/"+c.name, func(b *testing.B) {
				sess, err := NewSession(arr, Options{})
				if err != nil {
					b.Fatal(err)
				}
				in := defects.NewInjector(7)
				cp := defects.Model{Clustered: true, ClusterSize: 4}.Params(c.p, arr.NumCells())
				ring := make([]*defects.TrialBatch, 16)
				for i := range ring {
					ring[i] = defects.NewTrialBatch(arr.NumCells())
					if !c.clustered {
						in.BernoulliBatch(arr.NumCells(), c.p, defects.WordTrials, ring[i])
					} else if _, err := in.ClusteredBatch(arr, cp, defects.WordTrials, ring[i]); err != nil {
						b.Fatal(err)
					}
				}
				open := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					f, o := sess.Screen(ring[i%len(ring)].Cols())
					screenSink += f | o
					open += bits.OnesCount64(o)
				}
				b.ReportMetric(float64(open)/float64(b.N), "open/op")
			})
		}
	}
}

// TestNewSessionAllocs pins NewSession's allocation budget on every
// canonical design and both footprints. Screen's scratch — its live words
// and its worklist — is carved from allocations the session already makes.
func TestNewSessionAllocs(t *testing.T) {
	const want = 6
	for _, arr := range screenArrays(t, 100) {
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := NewSession(arr, Options{}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != want {
			t.Errorf("%s on %d cells: NewSession allocates %.0f times, want %d",
				arr.Design().Name, arr.NumCells(), allocs, want)
		}
	}
}
