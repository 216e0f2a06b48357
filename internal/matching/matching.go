// Package matching implements maximum matching on bipartite graphs.
//
// It is the feasibility kernel of local reconfiguration for defect-tolerant
// microfluidic arrays: the left side A holds faulty primary cells, the right
// side B holds fault-free spare cells, and an edge means physical adjacency.
// A reconfiguration exists if and only if a maximum matching saturates A
// (every faulty primary is assigned its own adjacent spare).
//
// Matcher is the one solver: a scratch-arena Hopcroft–Karp (O(E·sqrt(V)))
// that answers the feasibility verdict, the assignment (Partner) and, when
// A cannot be saturated, a Hall-violation witness. Graph with Kuhn's
// augmenting-path algorithm (O(V·E)) is the independent reference the tests
// cross-check it against; Validate and NeighborhoodSize certify a Result
// and a witness.
package matching

import "fmt"

// Unmatched marks a vertex with no partner in a matching.
const Unmatched = -1

// Graph is a bipartite graph with NA left vertices (0..NA-1) and NB right
// vertices (0..NB-1). Edges are stored as adjacency lists on the left side.
type Graph struct {
	na, nb int
	adj    [][]int32
	edges  int
}

// NewGraph returns an empty bipartite graph with the given part sizes.
// Negative sizes are treated as zero.
func NewGraph(na, nb int) *Graph {
	if na < 0 {
		na = 0
	}
	if nb < 0 {
		nb = 0
	}
	return &Graph{na: na, nb: nb, adj: make([][]int32, na)}
}

// NA returns the number of left-side vertices.
func (g *Graph) NA() int { return g.na }

// NB returns the number of right-side vertices.
func (g *Graph) NB() int { return g.nb }

// Edges returns the number of edges added so far.
func (g *Graph) Edges() int { return g.edges }

// AddEdge inserts the edge (a, b). It returns an error if either endpoint is
// out of range. Parallel edges are permitted and harmless.
func (g *Graph) AddEdge(a, b int) error {
	if a < 0 || a >= g.na {
		return fmt.Errorf("matching: left vertex %d out of range [0,%d)", a, g.na)
	}
	if b < 0 || b >= g.nb {
		return fmt.Errorf("matching: right vertex %d out of range [0,%d)", b, g.nb)
	}
	g.adj[a] = append(g.adj[a], int32(b))
	g.edges++
	return nil
}

// Adj returns the right-side neighbors of left vertex a. The returned slice
// is owned by the graph and must not be modified.
func (g *Graph) Adj(a int) []int32 { return g.adj[a] }

// Result holds a matching. MatchA[a] is the right partner of left vertex a
// (or Unmatched); MatchB[b] is the left partner of right vertex b.
type Result struct {
	Size   int
	MatchA []int
	MatchB []int
}

// SaturatesA reports whether every left vertex is matched — for
// reconfiguration, whether every faulty primary cell received a spare.
func (r Result) SaturatesA() bool { return r.Size == len(r.MatchA) }

// UnmatchedA returns the left vertices without a partner, in index order.
func (r Result) UnmatchedA() []int {
	var out []int
	for a, b := range r.MatchA {
		if b == Unmatched {
			out = append(out, a)
		}
	}
	return out
}

// Kuhn computes a maximum matching with repeated augmenting-path search in
// O(V·E). It exists as an independent implementation for cross-validation.
func (g *Graph) Kuhn() Result {
	matchA := make([]int32, g.na)
	matchB := make([]int32, g.nb)
	for i := range matchA {
		matchA[i] = Unmatched
	}
	for i := range matchB {
		matchB[i] = Unmatched
	}
	visited := make([]int32, g.nb)
	for i := range visited {
		visited[i] = -1
	}

	var try func(a, stamp int32) bool
	try = func(a, stamp int32) bool {
		for _, b := range g.adj[a] {
			if visited[b] == stamp {
				continue
			}
			visited[b] = stamp
			if matchB[b] == Unmatched || try(matchB[b], stamp) {
				matchA[a] = b
				matchB[b] = a
				return true
			}
		}
		return false
	}

	size := 0
	for a := int32(0); a < int32(g.na); a++ {
		if try(a, a) {
			size++
		}
	}
	return g.makeResult(size, matchA, matchB)
}

func (g *Graph) makeResult(size int, matchA, matchB []int32) Result {
	res := Result{
		Size:   size,
		MatchA: make([]int, g.na),
		MatchB: make([]int, g.nb),
	}
	for i, v := range matchA {
		res.MatchA[i] = int(v)
	}
	for i, v := range matchB {
		res.MatchB[i] = int(v)
	}
	return res
}

// Validate checks that res is a feasible matching of g: partners are
// symmetric, every matched pair is an actual edge, and no vertex is reused.
// It returns nil if the matching is structurally sound.
func (g *Graph) Validate(res Result) error {
	if len(res.MatchA) != g.na || len(res.MatchB) != g.nb {
		return fmt.Errorf("matching: result sized %dx%d, graph %dx%d",
			len(res.MatchA), len(res.MatchB), g.na, g.nb)
	}
	size := 0
	for a, b := range res.MatchA {
		if b == Unmatched {
			continue
		}
		size++
		if b < 0 || b >= g.nb {
			return fmt.Errorf("matching: MatchA[%d]=%d out of range", a, b)
		}
		if res.MatchB[b] != a {
			return fmt.Errorf("matching: asymmetric pair a=%d b=%d (MatchB[%d]=%d)", a, b, b, res.MatchB[b])
		}
		found := false
		for _, nb := range g.adj[a] {
			if int(nb) == b {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("matching: pair (%d,%d) is not an edge", a, b)
		}
	}
	if size != res.Size {
		return fmt.Errorf("matching: declared size %d, actual %d", res.Size, size)
	}
	for b, a := range res.MatchB {
		if a == Unmatched {
			continue
		}
		if a < 0 || a >= g.na || res.MatchA[a] != b {
			return fmt.Errorf("matching: MatchB[%d]=%d inconsistent", b, a)
		}
	}
	return nil
}

// NeighborhoodSize returns |N(S)| for a set S of left vertices, used to check
// Hall-violation witnesses.
func (g *Graph) NeighborhoodSize(s []int) int {
	seen := make(map[int32]struct{})
	for _, a := range s {
		if a < 0 || a >= g.na {
			continue
		}
		for _, b := range g.adj[a] {
			seen[b] = struct{}{}
		}
	}
	return len(seen)
}
