package service

import (
	"testing"

	"dmfb/internal/core"
	"dmfb/internal/sweep"
	"dmfb/internal/telemetry"
)

// testCache builds a cache counting into the cache families of a fresh
// registry, which it returns for reading the counts back.
func testCache(capacity int) (*resultCache, *telemetry.Registry) {
	m := newServiceMetrics(telemetry.NewRegistry())
	return newResultCache(capacity, m.cacheHits, m.cacheMisses), m.registry
}

// key is the yield-namespace key of a local, independent-model scenario.
func key(design string, n int) cacheKey {
	sc := sweep.Scenario{Strategy: sweep.Local, Design: design, NPrimary: n, P: 0.95, DefectModel: sweep.Independent}
	return scenarioKey(sc, core.SimParams{Runs: 1000, Seed: 1})
}

func TestCacheHitMiss(t *testing.T) {
	c, r := testCache(4)
	if _, ok := c.Get(key("a", 1)); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Add(key("a", 1), 42)
	v, ok := c.Get(key("a", 1))
	if !ok || v.(int) != 42 {
		t.Fatalf("Get = %v, %v; want 42, true", v, ok)
	}
	// Distinct fields must miss: same design, different primaries.
	if _, ok := c.Get(key("a", 2)); ok {
		t.Error("key with different n_primary hit")
	}
	hits, misses := r.Value("dmfb_cache_hits_total"), r.Value("dmfb_cache_misses_total")
	if hits != 1 || misses != 2 {
		t.Errorf("stats = %v hits / %v misses, want 1/2", hits, misses)
	}
}

func TestCacheOverwrite(t *testing.T) {
	c, _ := testCache(2)
	c.Add(key("a", 1), 1)
	c.Add(key("a", 1), 2)
	if c.Len() != 1 {
		t.Fatalf("Len = %d after duplicate Add, want 1", c.Len())
	}
	if v, _ := c.Get(key("a", 1)); v.(int) != 2 {
		t.Errorf("overwrite lost: got %v, want 2", v)
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	c, _ := testCache(2)
	c.Add(key("a", 1), "a")
	c.Add(key("b", 1), "b")
	// Touch "a" so "b" becomes least recently used.
	if _, ok := c.Get(key("a", 1)); !ok {
		t.Fatal("warm entry missing")
	}
	c.Add(key("c", 1), "c")
	if _, ok := c.Get(key("b", 1)); ok {
		t.Error("LRU entry b not evicted")
	}
	if _, ok := c.Get(key("a", 1)); !ok {
		t.Error("recently used entry a evicted")
	}
	if _, ok := c.Get(key("c", 1)); !ok {
		t.Error("newest entry c evicted")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

func TestCacheMinimumCapacity(t *testing.T) {
	c, _ := testCache(0)
	c.Add(key("a", 1), 1)
	c.Add(key("b", 1), 2)
	if c.Len() != 1 {
		t.Errorf("capacity-0 cache holds %d entries, want 1", c.Len())
	}
}
