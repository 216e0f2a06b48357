package matching

// Matcher is the package's maximum-matching solver, reused across graphs.
// It keeps every working array — flat CSR adjacency, match, BFS distance,
// and queue buffers — as scratch that survives across calls, so a
// steady-state feasibility query on the Monte-Carlo hot path performs no
// heap allocation at all.
//
// The build protocol is streaming and left-vertex-at-a-time, which is
// exactly how reconfiguration assembles its repair graph (one faulty
// primary after another):
//
//	m.Reset(nb)
//	for each left vertex:
//	    m.AddEdge(b) ... // edges of the current left vertex
//	    deg := m.EndLeft()
//	    if deg == 0 { /* no matching can saturate A */ }
//	feasible := m.SaturatesA()
//
// Edges added after Reset and before the first EndLeft belong to left
// vertex 0, and so on. The solver is Hopcroft–Karp; its matching size
// equals Graph.Kuhn's on every graph, by maximality. After
// MaxMatchingSize, Partner reads the assignment and HallViolation the
// certificate of infeasibility.
//
// A Matcher is not safe for concurrent use; give each worker its own.
type Matcher struct {
	nb int
	// CSR adjacency: edges of left vertex a are edges[starts[a]:starts[a+1]].
	// len(starts) == NA()+1 at all times; starts[0] == 0.
	starts []int32
	edges  []int32
	// emptyLeft records whether any completed left vertex has degree zero —
	// an immediate Hall violation (|N({a})| = 0 < 1) that lets SaturatesA
	// answer without running the solver.
	emptyLeft bool

	matchA, matchB, dist, queue []int32
}

// NewMatcher returns a matcher with scratch preallocated for graphs of up
// to maxA left vertices, maxB right vertices, and maxEdges edges. Larger
// graphs still work; they just grow the scratch once. Callers that know
// their bounds (reconfig sessions know the array) reach zero steady-state
// allocation immediately. All five fixed-size scratch arrays are carved
// from one backing allocation (capacity-capped so appends can never bleed
// into a neighbor); only edges gets its own, as the one buffer whose growth
// profile differs.
func NewMatcher(maxA, maxB, maxEdges int) *Matcher {
	if maxA < 0 {
		maxA = 0
	}
	if maxB < 0 {
		maxB = 0
	}
	if maxEdges < 0 {
		maxEdges = 0
	}
	buf := make([]int32, (maxA+1)+3*maxA+maxB)
	startsEnd := maxA + 1
	matchAEnd := startsEnd + maxA
	matchBEnd := matchAEnd + maxB
	distEnd := matchBEnd + maxA
	m := &Matcher{
		starts: buf[0:1:startsEnd],
		matchA: buf[startsEnd:startsEnd:matchAEnd],
		matchB: buf[matchAEnd:matchAEnd:matchBEnd],
		dist:   buf[matchBEnd:matchBEnd:distEnd],
		queue:  buf[distEnd:distEnd],
		edges:  make([]int32, 0, maxEdges),
	}
	return m
}

// Reset clears the matcher for a new graph with nb right vertices. Left
// vertices are introduced incrementally by AddEdge/EndLeft.
func (m *Matcher) Reset(nb int) {
	if nb < 0 {
		nb = 0
	}
	m.nb = nb
	m.starts = m.starts[:1]
	m.starts[0] = 0
	m.edges = m.edges[:0]
	m.emptyLeft = false
}

// NA returns the number of completed left vertices.
func (m *Matcher) NA() int { return len(m.starts) - 1 }

// NB returns the number of right vertices.
func (m *Matcher) NB() int { return m.nb }

// Edges returns the number of edges added since Reset (including those of
// the still-open left vertex).
func (m *Matcher) Edges() int { return len(m.edges) }

// AddEdge attaches right vertex b to the currently open left vertex. b must
// be in [0, NB()); out-of-range values panic, as the caller (a session bound
// to a fixed array) controls both sides.
func (m *Matcher) AddEdge(b int) {
	if b < 0 || b >= m.nb {
		panic("matching: right vertex out of range")
	}
	m.edges = append(m.edges, int32(b))
}

// EndLeft completes the current left vertex and returns its degree. A zero
// degree means this vertex can never be matched — callers typically
// early-exit a saturation query on it.
func (m *Matcher) EndLeft() int {
	deg := len(m.edges) - int(m.starts[len(m.starts)-1])
	m.starts = append(m.starts, int32(len(m.edges)))
	if deg == 0 {
		m.emptyLeft = true
	}
	return deg
}

// MaxMatchingSize computes the maximum matching size with Hopcroft–Karp
// over the scratch buffers, without materializing a Result. The matching
// itself stays readable through Partner and HallViolation until the next
// Reset.
func (m *Matcher) MaxMatchingSize() int {
	na := m.NA()
	m.matchA = growInt32(m.matchA, na)
	m.matchB = growInt32(m.matchB, m.nb)
	m.dist = growInt32(m.dist, na)
	for i := 0; i < na; i++ {
		m.matchA[i] = Unmatched
	}
	for i := 0; i < m.nb; i++ {
		m.matchB[i] = Unmatched
	}
	if len(m.edges) == 0 {
		return 0
	}
	size := 0
	for m.bfs() {
		for a := int32(0); a < int32(na); a++ {
			if m.matchA[a] == Unmatched && m.dfs(a) {
				size++
			}
		}
	}
	return size
}

// SaturatesA reports whether a maximum matching covers every left vertex —
// the reconfiguration-feasibility question. A recorded degree-zero left
// vertex answers false immediately, skipping the solver.
func (m *Matcher) SaturatesA() bool {
	if m.emptyLeft {
		return false
	}
	na := m.NA()
	if na == 0 {
		return true
	}
	return m.MaxMatchingSize() == na
}

// Partner returns the right partner of left vertex a in the matching of
// the last MaxMatchingSize call, or Unmatched.
func (m *Matcher) Partner(a int) int { return int(m.matchA[a]) }

// HallViolation returns a set S of left vertices whose neighborhood N(S) is
// smaller than S, which by Hall's theorem certifies that no matching
// saturates A. It reads the matching of the last MaxMatchingSize call and
// returns nil when that matching saturates A. The witness is the set of
// left vertices reachable by alternating paths from any unmatched left
// vertex (the König construction), in ascending index order.
func (m *Matcher) HallViolation() []int {
	na := m.NA()
	inS := make([]bool, na)
	inT := make([]bool, m.nb) // right vertices reached
	var stack []int32
	for a := 0; a < na; a++ {
		if m.matchA[a] == Unmatched {
			inS[a] = true
			stack = append(stack, int32(a))
		}
	}
	for len(stack) > 0 {
		a := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for j := m.starts[a]; j < m.starts[a+1]; j++ {
			b := m.edges[j]
			if inT[b] {
				continue
			}
			inT[b] = true
			// Follow the matched edge back to the left side.
			if a2 := m.matchB[b]; a2 != Unmatched && !inS[a2] {
				inS[a2] = true
				stack = append(stack, a2)
			}
		}
	}
	var out []int
	for a, ok := range inS {
		if ok {
			out = append(out, a)
		}
	}
	return out
}

const matcherInf = int32(1) << 30

func (m *Matcher) bfs() bool {
	na := int32(m.NA())
	m.queue = m.queue[:0]
	for a := int32(0); a < na; a++ {
		if m.matchA[a] == Unmatched {
			m.dist[a] = 0
			m.queue = append(m.queue, a)
		} else {
			m.dist[a] = matcherInf
		}
	}
	found := false
	for i := 0; i < len(m.queue); i++ {
		a := m.queue[i]
		for j := m.starts[a]; j < m.starts[a+1]; j++ {
			nxt := m.matchB[m.edges[j]]
			if nxt == Unmatched {
				found = true
				continue
			}
			if m.dist[nxt] == matcherInf {
				m.dist[nxt] = m.dist[a] + 1
				m.queue = append(m.queue, nxt)
			}
		}
	}
	return found
}

func (m *Matcher) dfs(a int32) bool {
	for j := m.starts[a]; j < m.starts[a+1]; j++ {
		b := m.edges[j]
		nxt := m.matchB[b]
		if nxt == Unmatched || (m.dist[nxt] == m.dist[a]+1 && m.dfs(nxt)) {
			m.matchA[a] = b
			m.matchB[b] = a
			return true
		}
	}
	m.dist[a] = matcherInf
	return false
}

// GraphSignature returns a 64-bit FNV-1a digest of the graph built since
// Reset: the right-side size, the CSR row starts, and the edge list, in
// order. Two matchers that were fed the identical Reset/AddEdge/EndLeft
// sequence — and only those — produce equal signatures, which is how the
// differential suite pins that the word-driven and FaultSet-driven
// feasibility paths assemble the same repair graph, not merely the same
// verdict.
func (m *Matcher) GraphSignature() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime64
			x >>= 8
		}
	}
	mix(uint64(m.nb))
	mix(uint64(len(m.starts)))
	for _, s := range m.starts {
		mix(uint64(uint32(s)))
	}
	for _, e := range m.edges {
		mix(uint64(uint32(e)))
	}
	return h
}

// growInt32 returns s resliced to length n, reallocating only when the
// capacity is insufficient (which the preallocating constructor avoids).
func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
