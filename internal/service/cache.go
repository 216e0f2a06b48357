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
// and jobs — shares its one entry.
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

// resultCache is a mutex-guarded LRU of finished estimates. Its slots grow
// by append to capacity, are then reused in place, and form a ring in
// recency order through the sentinel entries[0], whose next is the most
// recently used. index maps a key's hash to the slot that last took it;
// lookups compare the stored key, so a colliding key misses. Get counts
// every lookup into the per-kind hit/miss families that /metrics and
// /v1/stats both read; peek bypasses them.
type resultCache struct {
	mu           sync.Mutex
	capacity     int
	entries      []cacheEntry
	index        map[uint64]int32
	hash         func(cacheKey) uint64 // a field so tests can force collisions
	hits, misses *telemetry.CounterVec
}

// cacheEntry is one slot: a key, its hash, its estimate and its ring links.
type cacheEntry struct {
	key        cacheKey
	hash       uint64
	est        estimate
	prev, next int32
}

// estimate holds the numeric fields of a sweep.PointResult; its scenario is
// the key's, so an entry stores it once.
type estimate struct {
	NTotal, Runs, Successes                                  int
	Seed                                                     int64
	Epsilon, Yield, CILo, CIHi, EffectiveYield, NoRedundancy float64
}

func estimateOf(r sweep.PointResult) estimate {
	return estimate{r.NTotal, r.Runs, r.Successes, r.Seed, r.Epsilon, r.Yield, r.CILo, r.CIHi, r.EffectiveYield, r.NoRedundancy}
}

// result rebuilds what sweep.EvaluateScenario returned: Index 0, Cached false.
func (e estimate) result(sc sweep.Scenario) sweep.PointResult {
	return sweep.PointResult{Point: sweep.Point{Scenario: sc}, NTotal: e.NTotal, Runs: e.Runs, Successes: e.Successes,
		Seed: e.Seed, Epsilon: e.Epsilon, Yield: e.Yield, CILo: e.CILo, CIHi: e.CIHi,
		EffectiveYield: e.EffectiveYield, NoRedundancy: e.NoRedundancy}
}

// newResultCache builds an LRU holding at most capacity entries (minimum
// 1), counting lookups into the hits and misses families by cache kind.
func newResultCache(capacity int, hits, misses *telemetry.CounterVec) *resultCache {
	seed := maphash.MakeSeed()
	return &resultCache{
		capacity: min(max(capacity, 1), math.MaxInt32),
		entries:  make([]cacheEntry, 1), // the sentinel, linked to itself
		index:    make(map[uint64]int32),
		hash:     func(k cacheKey) uint64 { return maphash.Comparable(seed, k) },
		hits:     hits,
		misses:   misses,
	}
}

// Get returns the cached result for k, marking it most recently used, and
// counts the lookup as a hit or miss of k's kind.
func (c *resultCache) Get(k cacheKey) (sweep.PointResult, bool) {
	res, ok := c.peek(k)
	if ok {
		c.hits.With(k.kind()).Inc()
	} else {
		c.misses.With(k.kind()).Inc()
	}
	return res, ok
}

// peek is Get without touching the hit/miss counters, for internal
// double-checks that should not skew the reported hit rate.
func (c *resultCache) peek(k cacheKey) (sweep.PointResult, bool) {
	h := c.hash(k)
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.index[h]
	if !ok || c.entries[i].key != k {
		return sweep.PointResult{}, false
	}
	c.moveToFront(i)
	return c.entries[i].est.result(k.sc), true
}

// Add stores res under k, reusing the least recently used slot when full.
// A key whose hash collides with a cached one takes over its index entry;
// the displaced slot is unreachable until it is evicted.
func (c *resultCache) Add(k cacheKey, res sweep.PointResult) {
	h := c.hash(k)
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.index[h]
	if !ok || c.entries[i].key != k {
		if len(c.entries) <= c.capacity {
			i = int32(len(c.entries))
			c.entries = append(c.entries, cacheEntry{prev: i, next: i}) // a ring of its own
		} else {
			i = c.entries[0].prev
			// A missing hash reads as the sentinel's 0, never an occupied slot.
			if old := c.entries[i].hash; c.index[old] == i {
				delete(c.index, old)
			}
		}
		c.entries[i].key, c.entries[i].hash = k, h
		c.index[h] = i
	}
	c.entries[i].est = estimateOf(res)
	c.moveToFront(i)
}

// Len returns the number of occupied slots.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries) - 1
}

// moveToFront relinks slot i as the most recently used.
func (c *resultCache) moveToFront(i int32) {
	e := &c.entries[i]
	c.entries[e.prev].next, c.entries[e.next].prev = e.next, e.prev
	first := c.entries[0].next
	e.prev, e.next = 0, first
	c.entries[first].prev, c.entries[0].next = i, i
}
