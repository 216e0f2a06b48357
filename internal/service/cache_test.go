package service

import (
	"container/list"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"unsafe"

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

// yielded is a result told apart from others by its yield alone.
func yielded(y float64) sweep.PointResult { return sweep.PointResult{Yield: y} }

func TestCacheHitMiss(t *testing.T) {
	c, r := testCache(4)
	if _, ok := c.Get(key("a", 1)); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Add(key("a", 1), yielded(42))
	v, ok := c.Get(key("a", 1))
	if !ok || v.Yield != 42 {
		t.Fatalf("Get = %v, %v; want yield 42, true", v.Yield, ok)
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
	c.Add(key("a", 1), yielded(1))
	c.Add(key("a", 1), yielded(2))
	if c.Len() != 1 {
		t.Fatalf("Len = %d after duplicate Add, want 1", c.Len())
	}
	if v, _ := c.Get(key("a", 1)); v.Yield != 2 {
		t.Errorf("overwrite lost: got yield %v, want 2", v.Yield)
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	c, _ := testCache(2)
	c.Add(key("a", 1), yielded(1))
	c.Add(key("b", 1), yielded(2))
	// Touch "a" so "b" becomes least recently used.
	if _, ok := c.Get(key("a", 1)); !ok {
		t.Fatal("warm entry missing")
	}
	c.Add(key("c", 1), yielded(3))
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
	c.Add(key("a", 1), yielded(1))
	c.Add(key("b", 1), yielded(2))
	if c.Len() != 1 {
		t.Errorf("capacity-0 cache holds %d entries, want 1", c.Len())
	}
}

// TestCacheRoundTrip pins that a cached result reads back as exactly what
// sweep.EvaluateScenario returned: every field, the key's normalized
// scenario, Index 0 and Cached false. It covers a precision-targeted result
// whose realized run count is below its budget.
func TestCacheRoundTrip(t *testing.T) {
	sc := sweep.Scenario{Strategy: sweep.Hex, Design: "DTMB(2,6)", NPrimary: 60, P: 0.95, DefectModel: sweep.Clustered}
	sp := core.SimParams{Runs: 20000, Seed: 5, Epsilon: 0.05}
	adaptive, err := sweep.EvaluateScenario(context.Background(), sc, sp)
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.Runs >= sp.Runs {
		t.Fatalf("adaptive estimate ran %d of %d trials; want an early stop", adaptive.Runs, sp.Runs)
	}
	// Every field distinct and nonzero, so a dropped or swapped field shows.
	local := sweep.Scenario{Strategy: sweep.Local, Design: "DTMB(3,6)", NPrimary: 100, P: 0.9}
	handmade := sweep.PointResult{
		Point: sweep.Point{Scenario: local.Normalize()}, NTotal: 101, Runs: 202, Seed: 303,
		Successes: 404, Epsilon: 0.05, Yield: 0.6, CILo: 0.55, CIHi: 0.65,
		EffectiveYield: 0.45, NoRedundancy: 0.01,
	}
	rv := reflect.ValueOf(handmade)
	for i := range rv.NumField() {
		if f := rv.Type().Field(i); f.Name != "Point" && f.Name != "Cached" && rv.Field(i).IsZero() {
			t.Fatalf("round-trip sample leaves PointResult.%s zero", f.Name)
		}
	}
	for _, tc := range []struct {
		key cacheKey
		res sweep.PointResult
	}{
		{scenarioKey(sc, sp), adaptive},
		{scenarioKey(local, core.SimParams{Runs: 1000, Seed: 303, Epsilon: 0.05}), handmade},
	} {
		c, _ := testCache(4)
		c.Add(tc.key, tc.res)
		got, ok := c.Get(tc.key)
		if !ok || got != tc.res {
			t.Errorf("Get = %+v, %v\nwant %+v, true", got, ok, tc.res)
		}
	}
}

// TestCacheHashCollision forces distinct keys onto one hash: the newer key
// takes the index entry, the displaced one misses, and evicting the
// displaced slot leaves the newer key reachable.
func TestCacheHashCollision(t *testing.T) {
	c, _ := testCache(2)
	c.hash = func(k storedKey) uint64 {
		if k.design == "a" || k.design == "b" {
			return 7
		}
		return uint64(k.nPrimary)
	}
	c.Add(key("a", 1), yielded(1))
	c.Add(key("b", 1), yielded(2))
	if _, ok := c.Get(key("a", 1)); ok {
		t.Error("displaced key a hit")
	}
	if v, ok := c.Get(key("b", 1)); !ok || v.Yield != 2 {
		t.Errorf("Get(b) = %v, %v; want yield 2, true", v.Yield, ok)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2 (the displaced slot still counts)", c.Len())
	}
	// a's stale slot is the least recently used; c evicts it.
	c.Add(key("c", 3), yielded(3))
	if v, ok := c.Get(key("b", 1)); !ok || v.Yield != 2 {
		t.Errorf("after evicting the stale slot, Get(b) = %v, %v; want yield 2, true", v.Yield, ok)
	}
	if v, ok := c.Get(key("c", 3)); !ok || v.Yield != 3 {
		t.Errorf("Get(c) = %v, %v; want yield 3, true", v.Yield, ok)
	}
	// b is now least recently used; evicting it frees hash 7 for a.
	c.Add(key("a", 1), yielded(4))
	if _, ok := c.Get(key("b", 1)); ok {
		t.Error("evicted key b hit")
	}
	if v, ok := c.Get(key("a", 1)); !ok || v.Yield != 4 {
		t.Errorf("re-added a: Get = %v, %v; want yield 4, true", v.Yield, ok)
	}
}

// lruModel is the reference LRU the paged cache is checked against.
type lruModel struct {
	capacity int
	ll       *list.List // front = most recently used; values are *modelEntry
	items    map[cacheKey]*list.Element
}

type modelEntry struct {
	key   cacheKey
	yield float64
}

func (m *lruModel) get(k cacheKey) (float64, bool) {
	el, ok := m.items[k]
	if !ok {
		return 0, false
	}
	m.ll.MoveToFront(el)
	return el.Value.(*modelEntry).yield, true
}

func (m *lruModel) add(k cacheKey, y float64) {
	if el, ok := m.items[k]; ok {
		m.ll.MoveToFront(el)
		el.Value.(*modelEntry).yield = y
		return
	}
	m.items[k] = m.ll.PushFront(&modelEntry{key: k, yield: y})
	if m.ll.Len() > m.capacity {
		oldest := m.ll.Back()
		m.ll.Remove(oldest)
		delete(m.items, oldest.Value.(*modelEntry).key)
	}
}

// TestDifferentialCacheLRU drives the cache and a container/list reference
// LRU with the same random Get, peek and Add operations: every lookup must
// agree on hit or miss and value, Len must agree after every operation, and
// the hit/miss counters must match the model's counts. It runs 20 keys at
// capacity 8, and 400 keys at capacity 200, whose ring and evictions cross
// page boundaries. Each case runs twice, each cache hashing under its own
// fresh maphash seed and each run drawing its own operation stream.
func TestDifferentialCacheLRU(t *testing.T) {
	for _, tc := range []struct {
		name                string
		capacity, keys, ops int
	}{
		{"", 8, 20, 10000},
		{"capacity=200/", 200, 400, 40000},
	} {
		keys := make([]cacheKey, tc.keys)
		for i := range keys {
			keys[i] = key(fmt.Sprintf("d%d", i%4), i)
		}
		for seed := range uint64(2) {
			t.Run(fmt.Sprintf("%sseed=%d", tc.name, seed), func(t *testing.T) {
				c, r := testCache(tc.capacity)
				m := &lruModel{capacity: tc.capacity, ll: list.New(), items: make(map[cacheKey]*list.Element)}
				rng := rand.New(rand.NewPCG(seed, 41))
				var hits, misses float64
				for op := range tc.ops {
					k := keys[rng.IntN(len(keys))]
					switch rng.IntN(3) {
					case 0:
						y := float64(op)
						c.Add(k, yielded(y))
						m.add(k, y)
					case 1, 2:
						// One lookup in four is an uncounted peek.
						counted := rng.IntN(4) != 0
						lookup := c.peek
						if counted {
							lookup = c.Get
						}
						got, ok := lookup(k)
						want, wantOK := m.get(k)
						if ok != wantOK || got.Yield != want {
							t.Fatalf("op %d: lookup %v = %v, %v; model %v, %v", op, k.sc.NPrimary, got.Yield, ok, want, wantOK)
						}
						switch {
						case counted && wantOK:
							hits++
						case counted:
							misses++
						}
					}
					if c.Len() != m.ll.Len() {
						t.Fatalf("op %d: Len = %d, model %d", op, c.Len(), m.ll.Len())
					}
				}
				if h, ms := r.Value("dmfb_cache_hits_total"), r.Value("dmfb_cache_misses_total"); h != hits || ms != misses {
					t.Errorf("counters = %v hits / %v misses, model %v/%v", h, ms, hits, misses)
				}
			})
		}
	}
}

// TestCacheEntrySize pins the slot at 136 B at most: 64 of key, 56 of
// estimate and 8 of ring links make 128, so a 64-slot page fills one 8 KB
// size class.
func TestCacheEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(cacheEntry{}); n > 136 {
		t.Errorf("cacheEntry is %d B, want at most 136", n)
	}
}

// TestCacheFillAllocs bounds what building and filling a 1,024-entry cache
// allocates beyond its index: 17 pages of 8 KB, about 139 KB, and never a
// copy of them. The index's own growth is measured on a plain map of the
// same hashes and subtracted. A slice grown by append to 1,025 slots
// allocates several times that: about 680 KB of 200-B slots.
func TestCacheFillAllocs(t *testing.T) {
	const n = 1024
	keys := make([]cacheKey, n)
	for i := range keys {
		keys[i] = key("DTMB(2,6)", i+1)
	}
	m := newServiceMetrics(telemetry.NewRegistry())
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	hashes := make([]uint64, n)
	best := uint64(math.MaxUint64)
	// The least of three fills, so a stray background allocation does not
	// fail the test.
	for range 3 {
		var c *resultCache
		filled := allocated(func() {
			c = newResultCache(n, m.cacheHits, m.cacheMisses)
			for _, k := range keys {
				c.Add(k, yielded(1))
			}
		})
		if c.Len() != n {
			t.Fatalf("Len = %d, want %d", c.Len(), n)
		}
		for i, k := range keys {
			sk, _ := storeKey(&k)
			hashes[i] = c.hash(sk)
		}
		index := allocated(func() {
			m := make(map[uint64]int32)
			for i, h := range hashes {
				m[h] = int32(i)
			}
		})
		best = min(best, filled-min(filled, index))
	}
	if best > 150<<10 {
		t.Errorf("filling a %d-entry cache allocates %d KB beyond its index, want at most 150 KB", n, best>>10)
	}
}

// TestCacheKeyRange: a key the cache cannot store compactly — a count past
// int32, an unknown strategy or defect model, or the never-cached None
// strategy — is never stored or served, and never aliases the in-range key
// it would truncate to.
func TestCacheKeyRange(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("int cannot exceed int32")
	}
	wrap := int(int64(1) << 32) // truncates to 0 in int32
	base := sweep.Scenario{Strategy: sweep.Shifted, NPrimary: 100, SpareRows: 2, P: 0.95, DefectModel: sweep.Independent}
	sp := core.SimParams{Runs: 1000, Seed: 1}
	inRange := scenarioKey(base, sp)
	for _, tc := range []struct {
		name   string
		key    cacheKey
		sameAs cacheKey // the in-range key it would truncate to, if any
	}{
		{"runs", scenarioKey(base, core.SimParams{Runs: wrap + 1000, Seed: 1}), inRange},
		{"n_primary", func() cacheKey { sc := base; sc.NPrimary = wrap + 100; return scenarioKey(sc, sp) }(), inRange},
		{"spare_rows", func() cacheKey { sc := base; sc.SpareRows = wrap + 2; return scenarioKey(sc, sp) }(), inRange},
		{"negative runs", scenarioKey(base, core.SimParams{Runs: -wrap + 1000, Seed: 1}), inRange},
		{"strategy", func() cacheKey { sc := base; sc.Strategy = "mirrored"; return scenarioKey(sc, sp) }(), cacheKey{}},
		{"none strategy", func() cacheKey { sc := base; sc.Strategy = sweep.None; return scenarioKey(sc, sp) }(), cacheKey{}},
		{"defect model", func() cacheKey { sc := base; sc.DefectModel = "uniform"; return scenarioKey(sc, sp) }(), cacheKey{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, ok := storeKey(&tc.key); ok {
				t.Fatalf("storeKey accepted %+v", tc.key)
			}
			c, r := testCache(4)
			c.Add(tc.key, yielded(1))
			if c.Len() != 0 {
				t.Errorf("Len = %d after adding an out-of-range key, want 0", c.Len())
			}
			if _, ok := c.Get(tc.key); ok {
				t.Error("out-of-range key served")
			}
			if r.Value("dmfb_cache_misses_total") != 1 {
				t.Errorf("misses = %v, want 1", r.Value("dmfb_cache_misses_total"))
			}
			if tc.sameAs == (cacheKey{}) {
				return
			}
			c.Add(tc.sameAs, yielded(2))
			if _, ok := c.Get(tc.key); ok {
				t.Error("out-of-range key served the in-range key it truncates to")
			}
			if v, ok := c.Get(tc.sameAs); !ok || v.Yield != 2 {
				t.Errorf("in-range key: Get = %v, %v; want yield 2, true", v.Yield, ok)
			}
		})
	}
	// A count in the estimate past int32 is not stored either.
	c, _ := testCache(4)
	c.Add(inRange, sweep.PointResult{Runs: wrap + 1000})
	if c.Len() != 0 {
		t.Errorf("Len = %d after adding an out-of-range estimate, want 0", c.Len())
	}
}

// TestCacheAllocatesNothing pins the steady state: a hit, a miss and an
// Add that evicts from a full cache allocate nothing.
func TestCacheAllocatesNothing(t *testing.T) {
	c, _ := testCache(8)
	keys := make([]cacheKey, 16)
	for i := range keys {
		keys[i] = key("a", i)
		c.Add(keys[i], yielded(float64(i)))
	}
	i := 0
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"hit", func() { c.Get(keys[len(keys)-1]) }},
		{"miss", func() { c.Get(keys[0]) }},
		// Cycling 16 keys through 8 slots makes every Add an eviction.
		{"add", func() { i++; c.Add(keys[i%len(keys)], yielded(float64(i))) }},
	} {
		if n := testing.AllocsPerRun(200, tc.f); n != 0 {
			t.Errorf("%s allocates %v times, want 0", tc.name, n)
		}
	}
}

// TestEvaluateScenarioCachedAllocs bounds the allocations of a cache-served
// EvaluateScenario, fixed-run and precision-targeted, by alias and by the
// paper's own spelling of the design.
func TestEvaluateScenarioCachedAllocs(t *testing.T) {
	for _, tc := range []struct {
		req  ScenarioRequest
		want float64
	}{
		{ScenarioRequest{Strategy: "hex", Design: "dtmb26", NPrimary: 60, P: 0.95, Runs: 500, Seed: 7}, 0},
		{ScenarioRequest{Design: "DTMB(2,6)", NPrimary: 60, P: 0.95, DefectModel: "clustered", Runs: 500, Seed: 7, Epsilon: 0.05}, 0},
	} {
		e := testEngine(8)
		ctx := context.Background()
		if _, err := e.EvaluateScenario(ctx, tc.req); err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(200, func() {
			if rec, err := e.EvaluateScenario(ctx, tc.req); err != nil || !rec.Cached {
				t.Fatalf("cached EvaluateScenario = cached %v, %v", rec.Cached, err)
			}
		})
		if n > tc.want {
			t.Errorf("%s/%s: cached EvaluateScenario allocates %v times, want at most %v", tc.req.Strategy, tc.req.DefectModel, n, tc.want)
		}
	}
}

// TestCacheConcurrentUse shares a small cache among goroutines that Get,
// peek and Add over more keys than it holds, so slots are evicted and
// reused while others read them. Every hit must carry its own key's value.
// Run it under -race.
func TestCacheConcurrentUse(t *testing.T) {
	c, _ := testCache(4)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 7))
			for range 2000 {
				n := rng.IntN(10)
				k := key("a", n)
				if rng.IntN(2) == 0 {
					c.Add(k, yielded(float64(n)))
					continue
				}
				lookup := c.Get
				if rng.IntN(2) == 0 {
					lookup = c.peek
				}
				if res, ok := lookup(k); ok && (res.Yield != float64(n) || res.NPrimary != n) {
					t.Errorf("Get(n=%d) = yield %v, n %d", n, res.Yield, res.NPrimary)
				}
			}
		}()
	}
	wg.Wait()
	if c.Len() != 4 {
		t.Errorf("Len = %d, want 4", c.Len())
	}
}

// BenchmarkResultCache measures the cache on its own: hit is a Get over 400
// cached keys of a 1,024-entry cache, evict_add an Add of a new key into a
// full 400-entry cache, so each evicts the least recently used.
func BenchmarkResultCache(b *testing.B) {
	keys := benchCacheKeys(800)
	b.Run("hit", func(b *testing.B) {
		c, _ := testCache(1024)
		for _, k := range keys[:400] {
			c.Add(k, yielded(1))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := range b.N {
			if _, ok := c.Get(keys[i%400]); !ok {
				b.Fatal("miss")
			}
		}
	})
	b.Run("evict_add", func(b *testing.B) {
		c, _ := testCache(400)
		for _, k := range keys[:400] {
			c.Add(k, yielded(1))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := range b.N {
			// 800 keys cycle through 400 slots: each Add misses and evicts.
			c.Add(keys[(i+400)%800], yielded(float64(i)))
		}
	})
}

// benchCacheKeys returns n distinct keys shaped like the service's: the
// paper's designs under both strategies with a design and both defect
// models, across survival probabilities.
func benchCacheKeys(n int) []cacheKey {
	designs := []string{"DTMB(1,6)", "DTMB(2,6)", "DTMB(3,6)", "DTMB(4,4)"}
	keys := make([]cacheKey, n)
	for i := range keys {
		sc := sweep.Scenario{
			Strategy:    []sweep.Strategy{sweep.Local, sweep.Hex}[i%2],
			Design:      designs[i/2%4],
			NPrimary:    60 + 20*(i/8%5),
			P:           0.90 + 0.001*float64(i/40),
			DefectModel: []sweep.DefectModel{sweep.Independent, sweep.Clustered}[i/4%2],
		}
		keys[i] = scenarioKey(sc, core.SimParams{Runs: 2000, Seed: 7})
	}
	return keys
}
