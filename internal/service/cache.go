package service

import (
	"hash/maphash"
	"math"
	"sync"

	"dmfb/internal/sweep"
	"dmfb/internal/telemetry"
)

// cacheKey identifies one simulation result: a normalized Monte-Carlo
// scenario plus the parameters the estimate is deterministic in
// (chunk-seeded Monte-Carlo is independent of worker count), so equal keys
// mean equal results and caching is sound. Every endpoint that evaluates
// the same scenario — /v1/yield, /v1/recommend, /v1/sweep, /v2/evaluate
// and jobs — shares its one entry. A slot holds it as a storedKey.
type cacheKey struct {
	sc   sweep.Scenario
	runs int
	seed int64
	// epsilon is the precision target of adaptive estimates; 0 for fixed-run
	// requests (including every v1 request).
	epsilon float64
}

// kind names the key's namespace in the per-kind hit/miss series: "yield"
// for the local strategy under the independent model (the /v1/yield
// scenario), "local-clustered", "hex" and "shifted" for the rest.
func (k cacheKey) kind() string {
	switch {
	case k.sc.Strategy == sweep.Local && k.sc.DefectModel == sweep.Clustered:
		return "local-clustered"
	case k.sc.Strategy == sweep.Local:
		return "yield"
	case k.sc.Strategy == sweep.Hex:
		return "hex"
	}
	return "shifted"
}

// resultCache is a mutex-guarded LRU of finished estimates. Its slots live
// in fixed pages of pageSlots, allocated as the cache fills and never
// copied; once full, it reuses the least recently used slot in place. The
// slots form a ring in recency order through the sentinel slot 0, whose
// next is the most recently used. index maps a stored key's hash to the
// slot that last took it; lookups compare the stored key, so a colliding
// key misses. A key storeKey cannot represent is never stored or served.
// Get counts every lookup into the per-kind hit/miss families that /metrics
// and /v1/stats both read; peek bypasses them.
type resultCache struct {
	mu           sync.Mutex
	capacity     int
	pages        []*cachePage
	used         int32 // slots handed out, the sentinel included
	index        map[uint64]int32
	hash         func(storedKey) uint64 // a field so tests can force collisions
	hits, misses *telemetry.CounterVec
}

// pageSlots is the slot count of a page: 63 slots of 128 B, plus the 8 B
// header the allocator adds to an object over 512 B that holds pointers,
// fit the 8 KB size class; 64 would take the 9.25 KB one.
const pageSlots = 63

type cachePage [pageSlots]cacheEntry

// cacheEntry is one slot: a stored key, its estimate and its ring links.
// An evicted slot's hash is recomputed from its key, not stored.
type cacheEntry struct {
	key        storedKey
	est        estimate
	prev, next int32
}

// storedKey is a cacheKey as a slot holds it. The strategy and defect model
// are one-byte codes, so no string decoded from a request is pinned; the
// design is the canonical name resolveDesign returns, a static string. The
// float64s are held as their bits, so everything but the design hashes and
// compares as one run of memory. That is never looser than comparing their
// values: bit-equal floats are equal, and a zero of the other sign misses.
type storedKey struct {
	design                        string
	p, clusterSize, epsilon, seed uint64
	nPrimary, spareRows, runs     int32
	strategy, model               uint8
}

// storeKey compacts k, or reports false if k does not fit: a strategy
// without a code (None has none: its closed form is never cached), an
// unknown defect model, or a count past int32. Such a key is never stored,
// so it cannot alias the in-range key it would truncate to. k is a pointer
// because a hit's cost is mostly copying.
func storeKey(k *cacheKey) (storedKey, bool) {
	var strategy, model uint8
	switch k.sc.Strategy {
	case sweep.Local:
		strategy = 1
	case sweep.Hex:
		strategy = 2
	case sweep.Shifted:
		strategy = 3
	}
	switch k.sc.DefectModel {
	case sweep.Independent:
		model = 1
	case sweep.Clustered:
		model = 2
	}
	nPrimary, ok1 := fit32(k.sc.NPrimary)
	spareRows, ok2 := fit32(k.sc.SpareRows)
	runs, ok3 := fit32(k.runs)
	return storedKey{
		design: k.sc.Design, p: math.Float64bits(k.sc.P), clusterSize: math.Float64bits(k.sc.ClusterSize),
		epsilon: math.Float64bits(k.epsilon), seed: uint64(k.seed),
		nPrimary: nPrimary, spareRows: spareRows, runs: runs, strategy: strategy, model: model,
	}, strategy != 0 && model != 0 && ok1 && ok2 && ok3
}

// fit32 converts n to int32, reporting whether it fits.
func fit32(n int) (int32, bool) {
	return int32(n), n >= math.MinInt32 && n <= math.MaxInt32
}

// estimate holds the numeric fields of a sweep.PointResult but its seed and
// epsilon, which are the key's: scenarioKey takes both from the SimParams
// the result was computed under. Its scenario is the key's too.
type estimate struct {
	Yield, CILo, CIHi, EffectiveYield, NoRedundancy float64
	NTotal, Runs, Successes                         int32
}

// estimateOf compacts r, reporting false if a count does not fit int32.
func estimateOf(r *sweep.PointResult) (estimate, bool) {
	nTotal, ok1 := fit32(r.NTotal)
	runs, ok2 := fit32(r.Runs)
	successes, ok3 := fit32(r.Successes)
	return estimate{r.Yield, r.CILo, r.CIHi, r.EffectiveYield, r.NoRedundancy, nTotal, runs, successes}, ok1 && ok2 && ok3
}

// result rebuilds what sweep.EvaluateScenario returned for k: Index 0,
// Cached false.
func (e *estimate) result(k *cacheKey) sweep.PointResult {
	return sweep.PointResult{Point: sweep.Point{Scenario: k.sc}, NTotal: int(e.NTotal), Runs: int(e.Runs),
		Successes: int(e.Successes), Seed: k.seed, Epsilon: k.epsilon, Yield: e.Yield, CILo: e.CILo,
		CIHi: e.CIHi, EffectiveYield: e.EffectiveYield, NoRedundancy: e.NoRedundancy}
}

// newResultCache builds an LRU holding at most capacity entries (minimum
// 1), counting lookups into the hits and misses families by cache kind.
func newResultCache(capacity int, hits, misses *telemetry.CounterVec) *resultCache {
	seed := maphash.MakeSeed()
	return &resultCache{
		capacity: min(max(capacity, 1), math.MaxInt32-1),
		pages:    []*cachePage{new(cachePage)},
		used:     1, // the sentinel, linked to itself
		index:    make(map[uint64]int32),
		hash:     func(k storedKey) uint64 { return maphash.Comparable(seed, k) },
		hits:     hits,
		misses:   misses,
	}
}

// slot returns slot i.
func (c *resultCache) slot(i int32) *cacheEntry {
	return &c.pages[uint32(i)/pageSlots][uint32(i)%pageSlots]
}

// Get returns the cached result for k, marking it most recently used, and
// counts the lookup as a hit or miss of k's kind.
func (c *resultCache) Get(k cacheKey) (sweep.PointResult, bool) {
	res, ok := c.lookup(&k)
	if ok {
		c.hits.With(k.kind()).Inc()
	} else {
		c.misses.With(k.kind()).Inc()
	}
	return res, ok
}

// peek is Get without touching the hit/miss counters, for internal
// double-checks that should not skew the reported hit rate.
func (c *resultCache) peek(k cacheKey) (sweep.PointResult, bool) { return c.lookup(&k) }

// lookup is peek on a pointer, so a hit copies no key.
func (c *resultCache) lookup(k *cacheKey) (sweep.PointResult, bool) {
	sk, ok := storeKey(k)
	if !ok {
		return sweep.PointResult{}, false
	}
	h := c.hash(sk)
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.index[h]
	if !ok {
		return sweep.PointResult{}, false
	}
	e := c.slot(i)
	if e.key != sk {
		return sweep.PointResult{}, false
	}
	c.moveToFront(i)
	return e.est.result(k), true
}

// Add stores res under k, reusing the least recently used slot when full.
// A key whose hash collides with a cached one takes over its index entry;
// the displaced slot is unreachable until it is evicted. A key or estimate
// that does not fit a slot is not stored.
func (c *resultCache) Add(k cacheKey, res sweep.PointResult) {
	sk, ok := storeKey(&k)
	est, fits := estimateOf(&res)
	if !ok || !fits {
		return
	}
	h := c.hash(sk)
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.index[h]
	if !ok || c.slot(i).key != sk {
		if int(c.used) <= c.capacity {
			i = c.used
			c.used++
			if i%pageSlots == 0 {
				c.pages = append(c.pages, new(cachePage))
			}
			c.slot(i).prev, c.slot(i).next = i, i // a ring of its own
		} else {
			i = c.slot(0).prev
			// A missing hash reads as the sentinel's 0, never an occupied slot.
			if old := c.hash(c.slot(i).key); c.index[old] == i {
				delete(c.index, old)
			}
		}
		c.index[h] = i
	}
	e := c.slot(i)
	e.key, e.est = sk, est
	c.moveToFront(i)
}

// Len returns the number of occupied slots.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int(c.used) - 1
}

// moveToFront relinks slot i as the most recently used.
func (c *resultCache) moveToFront(i int32) {
	e, head := c.slot(i), c.slot(0)
	c.slot(e.prev).next, c.slot(e.next).prev = e.next, e.prev
	first := head.next
	e.prev, e.next = 0, first
	c.slot(first).prev, head.next = i, i
}
