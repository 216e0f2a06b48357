package service

import (
	"container/list"
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

// resultCache is a mutex-guarded LRU of finished responses. Get counts
// every lookup into the per-kind hit/miss families that /metrics and
// /v1/stats both read; peek bypasses them, so internal double-checks never
// skew the reported rate.
type resultCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[cacheKey]*list.Element
	hits     *telemetry.CounterVec
	misses   *telemetry.CounterVec
}

// cacheEntry is the list-element payload.
type cacheEntry struct {
	key cacheKey
	val any
}

// newResultCache builds an LRU holding at most capacity entries (minimum
// 1), counting lookups into the hits and misses families by cache kind.
func newResultCache(capacity int, hits, misses *telemetry.CounterVec) *resultCache {
	if capacity < 1 {
		capacity = 1
	}
	return &resultCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[cacheKey]*list.Element),
		hits:     hits,
		misses:   misses,
	}
}

// Get returns the cached value for k, marking it most recently used, and
// counts the lookup as a hit or miss of k's kind.
func (c *resultCache) Get(k cacheKey) (any, bool) {
	v, ok := c.peek(k)
	if ok {
		c.hits.With(k.kind()).Inc()
	} else {
		c.misses.With(k.kind()).Inc()
	}
	return v, ok
}

// peek is Get without touching the hit/miss counters, for internal
// double-checks that should not skew the reported hit rate.
func (c *resultCache) peek(k cacheKey) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// Add stores v under k, evicting the least recently used entry when full.
func (c *resultCache) Add(k cacheKey, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).val = v
		return
	}
	c.items[k] = c.ll.PushFront(&cacheEntry{key: k, val: v})
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}

// Len returns the number of cached entries.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
