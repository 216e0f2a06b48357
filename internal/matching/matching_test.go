package matching

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustEdge(t *testing.T, g *Graph, a, b int) {
	t.Helper()
	if err := g.AddEdge(a, b); err != nil {
		t.Fatalf("AddEdge(%d,%d): %v", a, b, err)
	}
}

// hopcroftKarp solves g on a Matcher fed g's adjacency lists in order and
// returns the matching as a Result (MatchA through Partner, MatchB from the
// solver's own right-side array, so Validate checks their symmetry) along
// with the matcher, whose HallViolation reads the same matching.
func hopcroftKarp(g *Graph) (Result, *Matcher) {
	m := NewMatcher(g.NA(), g.NB(), g.Edges())
	m.Reset(g.NB())
	for a := 0; a < g.NA(); a++ {
		for _, b := range g.Adj(a) {
			m.AddEdge(int(b))
		}
		m.EndLeft()
	}
	res := Result{Size: m.MaxMatchingSize(), MatchA: make([]int, g.NA()), MatchB: make([]int, g.NB())}
	for a := range res.MatchA {
		res.MatchA[a] = m.Partner(a)
	}
	for b := range res.MatchB {
		res.MatchB[b] = int(m.matchB[b])
	}
	return res, m
}

func TestEmptyGraph(t *testing.T) {
	g := NewGraph(0, 0)
	hk, _ := hopcroftKarp(g)
	for _, res := range []Result{hk, g.Kuhn()} {
		if res.Size != 0 {
			t.Errorf("empty graph matching size %d", res.Size)
		}
		if !res.SaturatesA() {
			t.Error("empty A should be trivially saturated")
		}
		if err := g.Validate(res); err != nil {
			t.Error(err)
		}
	}
}

func TestNegativeSizesClamped(t *testing.T) {
	g := NewGraph(-3, -1)
	if g.NA() != 0 || g.NB() != 0 {
		t.Errorf("negative sizes not clamped: %d %d", g.NA(), g.NB())
	}
}

func TestAddEdgeRangeChecks(t *testing.T) {
	g := NewGraph(2, 2)
	for _, e := range [][2]int{{-1, 0}, {2, 0}, {0, -1}, {0, 2}} {
		if err := g.AddEdge(e[0], e[1]); err == nil {
			t.Errorf("AddEdge(%d,%d) should fail", e[0], e[1])
		}
	}
	if err := g.AddEdge(1, 1); err != nil {
		t.Errorf("valid edge rejected: %v", err)
	}
	if g.Edges() != 1 {
		t.Errorf("Edges() = %d, want 1", g.Edges())
	}
}

func TestPerfectMatchingSquare(t *testing.T) {
	// Complete bipartite K3,3 has a perfect matching.
	g := NewGraph(3, 3)
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			mustEdge(t, g, a, b)
		}
	}
	res, _ := hopcroftKarp(g)
	if res.Size != 3 || !res.SaturatesA() {
		t.Errorf("K3,3: size %d", res.Size)
	}
	if err := g.Validate(res); err != nil {
		t.Error(err)
	}
}

func TestPaperFigure8StyleInstance(t *testing.T) {
	// Mirrors the paper's Fig. 8 example shape: faulty primaries sharing
	// adjacent spares; a saturating assignment exists.
	// A = {f0, f1, f2}, B = {s0, s1, s2, s3}
	g := NewGraph(3, 4)
	mustEdge(t, g, 0, 0)
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 1, 1)
	mustEdge(t, g, 1, 2)
	mustEdge(t, g, 2, 2)
	mustEdge(t, g, 2, 3)
	res, m := hopcroftKarp(g)
	if !res.SaturatesA() {
		t.Fatalf("expected saturating matching, got size %d", res.Size)
	}
	if v := m.HallViolation(); v != nil {
		t.Errorf("no violation expected, got %v", v)
	}
}

func TestContention(t *testing.T) {
	// Three faulty primaries all adjacent to only two spares: impossible.
	g := NewGraph(3, 2)
	for a := 0; a < 3; a++ {
		mustEdge(t, g, a, 0)
		mustEdge(t, g, a, 1)
	}
	res, m := hopcroftKarp(g)
	if res.Size != 2 {
		t.Fatalf("size %d, want 2", res.Size)
	}
	if res.SaturatesA() {
		t.Fatal("should not saturate")
	}
	unmatched := res.UnmatchedA()
	if len(unmatched) != 1 {
		t.Fatalf("unmatched %v, want exactly one", unmatched)
	}
	viol := m.HallViolation()
	if viol == nil {
		t.Fatal("expected Hall violation witness")
	}
	if g.NeighborhoodSize(viol) >= len(viol) {
		t.Errorf("witness S (|S|=%d) has |N(S)|=%d, not a violation",
			len(viol), g.NeighborhoodSize(viol))
	}
}

func TestIsolatedLeftVertex(t *testing.T) {
	g := NewGraph(2, 2)
	mustEdge(t, g, 0, 0)
	// vertex 1 has no edges
	res, m := hopcroftKarp(g)
	if res.Size != 1 || res.SaturatesA() {
		t.Errorf("size %d saturates %v", res.Size, res.SaturatesA())
	}
	viol := m.HallViolation()
	// {1} alone is a Hall violation (|N({1})| = 0).
	if len(viol) == 0 {
		t.Fatal("expected nonempty witness")
	}
	if g.NeighborhoodSize(viol) >= len(viol) {
		t.Error("witness is not a Hall violation")
	}
}

func TestParallelEdgesHarmless(t *testing.T) {
	g := NewGraph(1, 1)
	mustEdge(t, g, 0, 0)
	mustEdge(t, g, 0, 0)
	res, _ := hopcroftKarp(g)
	if res.Size != 1 {
		t.Errorf("size %d, want 1", res.Size)
	}
	if err := g.Validate(res); err != nil {
		t.Error(err)
	}
}

func TestChainAugmentation(t *testing.T) {
	// Path graph requiring augmentation: a0-b0, a1-b0, a1-b1. Greedy that
	// matches a0-b0 then must augment to place a1.
	g := NewGraph(2, 2)
	mustEdge(t, g, 0, 0)
	mustEdge(t, g, 1, 0)
	mustEdge(t, g, 1, 1)
	hk, _ := hopcroftKarp(g)
	for name, res := range map[string]Result{"hk": hk, "kuhn": g.Kuhn()} {
		if res.Size != 2 {
			t.Errorf("%s: size %d, want 2", name, res.Size)
		}
	}
}

// randomGraph builds a random bipartite graph with the given densities.
func randomGraph(rng *rand.Rand, na, nb int, prob float64) *Graph {
	g := NewGraph(na, nb)
	for a := 0; a < na; a++ {
		for b := 0; b < nb; b++ {
			if rng.Float64() < prob {
				_ = g.AddEdge(a, b)
			}
		}
	}
	return g
}

func TestHopcroftKarpEqualsKuhnOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		na := rng.Intn(20)
		nb := rng.Intn(20)
		g := randomGraph(rng, na, nb, rng.Float64())
		hk, _ := hopcroftKarp(g)
		kuhn := g.Kuhn()
		if hk.Size != kuhn.Size {
			t.Fatalf("trial %d: HK size %d != Kuhn size %d (na=%d nb=%d edges=%d)",
				trial, hk.Size, kuhn.Size, na, nb, g.Edges())
		}
		if err := g.Validate(hk); err != nil {
			t.Fatalf("trial %d HK: %v", trial, err)
		}
		if err := g.Validate(kuhn); err != nil {
			t.Fatalf("trial %d Kuhn: %v", trial, err)
		}
	}
}

func TestHallViolationWitnessIsAlwaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	checked := 0
	for trial := 0; trial < 300; trial++ {
		na := 1 + rng.Intn(15)
		nb := rng.Intn(12)
		g := randomGraph(rng, na, nb, 0.15)
		res, m := hopcroftKarp(g)
		viol := m.HallViolation()
		if res.SaturatesA() {
			if viol != nil {
				t.Fatalf("trial %d: witness on saturating matching", trial)
			}
			continue
		}
		checked++
		if len(viol) == 0 {
			t.Fatalf("trial %d: missing witness", trial)
		}
		if n := g.NeighborhoodSize(viol); n >= len(viol) {
			t.Fatalf("trial %d: |S|=%d |N(S)|=%d is not a violation", trial, len(viol), n)
		}
	}
	if checked == 0 {
		t.Fatal("no unsaturated instances generated; weaken density")
	}
}

func TestMatchingSizeNeverExceedsMinPartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		na, nb := rng.Intn(25), rng.Intn(25)
		g := randomGraph(rng, na, nb, 0.3)
		res, _ := hopcroftKarp(g)
		minPart := na
		if nb < minPart {
			minPart = nb
		}
		return res.Size <= minPart && res.Size >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMatchingMonotoneInEdges(t *testing.T) {
	// Adding edges can never decrease the maximum matching size.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		na, nb := 1+rng.Intn(12), 1+rng.Intn(12)
		g := NewGraph(na, nb)
		prev := 0
		for k := 0; k < 30; k++ {
			_ = g.AddEdge(rng.Intn(na), rng.Intn(nb))
			res, _ := hopcroftKarp(g)
			size := res.Size
			if size < prev {
				t.Fatalf("trial %d: matching shrank %d -> %d", trial, prev, size)
			}
			prev = size
		}
	}
}

func TestValidateRejectsCorruptResults(t *testing.T) {
	g := NewGraph(2, 2)
	mustEdge(t, g, 0, 0)
	mustEdge(t, g, 1, 1)
	res, _ := hopcroftKarp(g)

	bad := res
	bad.Size = 5
	if err := g.Validate(bad); err == nil {
		t.Error("wrong size accepted")
	}

	bad = Result{Size: 1, MatchA: []int{1, Unmatched}, MatchB: []int{Unmatched, 0}}
	if err := g.Validate(bad); err == nil {
		t.Error("non-edge pair accepted")
	}

	bad = Result{Size: 0, MatchA: []int{Unmatched}, MatchB: []int{Unmatched, Unmatched}}
	if err := g.Validate(bad); err == nil {
		t.Error("wrong dimensions accepted")
	}

	asym := Result{
		Size:   2,
		MatchA: []int{0, 1},
		MatchB: []int{1, 0}, // inconsistent with MatchA
	}
	if err := g.Validate(asym); err == nil {
		t.Error("asymmetric matching accepted")
	}
}

func TestLargeSparseGraph(t *testing.T) {
	// A long "ladder": a_i adjacent to b_i and b_{i+1}. Perfect matching
	// exists; exercises deep augmenting structure.
	const n = 5000
	g := NewGraph(n, n)
	for i := 0; i < n; i++ {
		mustEdge(t, g, i, i)
		if i+1 < n {
			mustEdge(t, g, i, i+1)
		}
	}
	res, _ := hopcroftKarp(g)
	if res.Size != n {
		t.Fatalf("ladder: size %d, want %d", res.Size, n)
	}
	if err := g.Validate(res); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHopcroftKarpDense100(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, 100, 100, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = hopcroftKarp(g)
	}
}

func BenchmarkKuhnDense100(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, 100, 100, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Kuhn()
	}
}

func BenchmarkHopcroftKarpSparse5000(b *testing.B) {
	g := NewGraph(5000, 5000)
	for i := 0; i < 5000; i++ {
		_ = g.AddEdge(i, i)
		if i+1 < 5000 {
			_ = g.AddEdge(i, i+1)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = hopcroftKarp(g)
	}
}
