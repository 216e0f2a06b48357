package matching

import (
	"math/rand"
	"testing"
)

// buildBoth constructs the same random bipartite graph as a Graph and as a
// Matcher, returning both.
func buildBoth(t *testing.T, rng *rand.Rand, na, nb int, edgeProb float64) (*Graph, *Matcher) {
	t.Helper()
	g := NewGraph(na, nb)
	m := NewMatcher(na, nb, na*nb)
	m.Reset(nb)
	for a := 0; a < na; a++ {
		for b := 0; b < nb; b++ {
			if rng.Float64() < edgeProb {
				if err := g.AddEdge(a, b); err != nil {
					t.Fatal(err)
				}
				m.AddEdge(b)
			}
		}
		m.EndLeft()
	}
	return g, m
}

// TestMatcherMatchesGraphRandom cross-validates the scratch-arena solver
// against both reference algorithms on random graphs of varied shape and
// density.
func TestMatcherMatchesGraphRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][2]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {3, 5}, {5, 3}, {8, 8}, {12, 7}, {20, 30}, {40, 40}}
	for _, sh := range shapes {
		for _, prob := range []float64{0, 0.05, 0.2, 0.5, 0.9, 1} {
			for trial := 0; trial < 20; trial++ {
				g, m := buildBoth(t, rng, sh[0], sh[1], prob)
				hk, _ := hopcroftKarp(g)
				kuhn := g.Kuhn()
				got := m.MaxMatchingSize()
				if got != hk.Size || got != kuhn.Size {
					t.Fatalf("na=%d nb=%d prob=%.2f: Matcher size %d, HopcroftKarp %d, Kuhn %d",
						sh[0], sh[1], prob, got, hk.Size, kuhn.Size)
				}
				if m.SaturatesA() != hk.SaturatesA() {
					t.Fatalf("na=%d nb=%d prob=%.2f: SaturatesA disagrees (matcher %v, graph %v)",
						sh[0], sh[1], prob, m.SaturatesA(), hk.SaturatesA())
				}
			}
		}
	}
}

// TestMatcherReuseAcrossGraphs checks that one matcher solves a sequence of
// differently sized graphs correctly — the session usage pattern.
func TestMatcherReuseAcrossGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := NewMatcher(4, 4, 16) // deliberately small: later graphs force growth
	for trial := 0; trial < 200; trial++ {
		na, nb := rng.Intn(15), rng.Intn(15)
		g := NewGraph(na, nb)
		m.Reset(nb)
		for a := 0; a < na; a++ {
			for b := 0; b < nb; b++ {
				if rng.Float64() < 0.3 {
					if err := g.AddEdge(a, b); err != nil {
						t.Fatal(err)
					}
					m.AddEdge(b)
				}
			}
			m.EndLeft()
		}
		ref, _ := hopcroftKarp(g)
		if got, want := m.MaxMatchingSize(), ref.Size; got != want {
			t.Fatalf("trial %d (na=%d nb=%d): matcher %d, graph %d", trial, na, nb, got, want)
		}
	}
}

// TestMatcherEmptyLeftEarlyExit checks the degree-zero early exit: EndLeft
// reports 0 and SaturatesA answers false without solving.
func TestMatcherEmptyLeftEarlyExit(t *testing.T) {
	m := NewMatcher(2, 2, 4)
	m.Reset(2)
	m.AddEdge(0)
	if deg := m.EndLeft(); deg != 1 {
		t.Fatalf("degree %d, want 1", deg)
	}
	if deg := m.EndLeft(); deg != 0 {
		t.Fatalf("degree %d, want 0", deg)
	}
	if m.SaturatesA() {
		t.Fatal("SaturatesA true despite an isolated left vertex")
	}
	// The same matcher recovers after a Reset.
	m.Reset(1)
	m.AddEdge(0)
	m.EndLeft()
	if !m.SaturatesA() {
		t.Fatal("SaturatesA false on a trivially saturable graph")
	}
}

// TestMatcherTrivialCases pins the degenerate shapes.
func TestMatcherTrivialCases(t *testing.T) {
	m := NewMatcher(0, 0, 0)
	m.Reset(0)
	if !m.SaturatesA() {
		t.Fatal("empty graph must saturate A vacuously")
	}
	if m.MaxMatchingSize() != 0 {
		t.Fatal("empty graph has nonzero matching")
	}
	m.Reset(5)
	if m.NA() != 0 || m.NB() != 5 {
		t.Fatalf("NA=%d NB=%d after Reset(5)", m.NA(), m.NB())
	}
}

// TestMatcherReadsAfterDegenerateSolve pins Partner and HallViolation on
// the shapes MaxMatchingSize answers without searching (no right vertices,
// no edges): a matcher that just solved a saturating graph must not leak
// that matching into the next one.
func TestMatcherReadsAfterDegenerateSolve(t *testing.T) {
	m := NewMatcher(2, 2, 4)
	m.Reset(2)
	m.AddEdge(0)
	m.EndLeft()
	m.AddEdge(1)
	m.EndLeft()
	if m.MaxMatchingSize() != 2 || m.Partner(0) != 0 || m.Partner(1) != 1 {
		t.Fatalf("warm-up solve: partners %d %d", m.Partner(0), m.Partner(1))
	}
	for _, nb := range []int{0, 2} {
		m.Reset(nb)
		m.EndLeft()
		m.EndLeft()
		if size := m.MaxMatchingSize(); size != 0 {
			t.Fatalf("nb=%d: size %d on an edgeless graph", nb, size)
		}
		for a := 0; a < 2; a++ {
			if p := m.Partner(a); p != Unmatched {
				t.Fatalf("nb=%d: Partner(%d) = %d, want Unmatched", nb, a, p)
			}
		}
		if v := m.HallViolation(); len(v) != 2 || v[0] != 0 || v[1] != 1 {
			t.Fatalf("nb=%d: HallViolation = %v, want [0 1]", nb, v)
		}
	}
}

// TestMatcherAddEdgePanics pins the contract that out-of-range right
// vertices panic rather than corrupt scratch.
func TestMatcherAddEdgePanics(t *testing.T) {
	m := NewMatcher(1, 1, 1)
	m.Reset(1)
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge(1) with nb=1 did not panic")
		}
	}()
	m.AddEdge(1)
}

// TestMatcherSteadyStateZeroAllocs pins the whole build-and-solve cycle to
// zero allocations once the scratch is warm.
func TestMatcherSteadyStateZeroAllocs(t *testing.T) {
	const na, nb = 12, 10
	m := NewMatcher(na, nb, na*3)
	rng := rand.New(rand.NewSource(3))
	// Deterministic pseudo-random edge pattern regenerated per cycle without
	// allocating: a tiny LCG inlined below.
	cycle := func(seed uint64) {
		m.Reset(nb)
		x := seed
		for a := 0; a < na; a++ {
			for k := 0; k < 3; k++ {
				x = x*6364136223846793005 + 1442695040888963407
				m.AddEdge(int(x>>33) % nb)
			}
			m.EndLeft()
		}
		m.SaturatesA()
	}
	for i := 0; i < 10; i++ {
		cycle(rng.Uint64())
	}
	allocs := testing.AllocsPerRun(100, func() { cycle(42) })
	if allocs != 0 {
		t.Fatalf("steady-state matcher cycle allocates %.1f times per run, want 0", allocs)
	}
}
