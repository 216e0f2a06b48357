package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"dmfb/internal/core"
	"dmfb/internal/layout"
	"dmfb/internal/sweep"
	"dmfb/internal/telemetry"
)

// testEngine uses small run counts so tests stay fast.
func testEngine(cacheSize int) *Engine {
	return NewEngine(EngineConfig{CacheSize: cacheSize, DefaultRuns: 500})
}

func yieldReq() YieldRequest {
	return YieldRequest{Design: "DTMB(2,6)", NPrimary: 60, P: 0.95, Runs: 500, Seed: 7}
}

func TestEngineYieldMatchesCore(t *testing.T) {
	e := testEngine(8)
	req := yieldReq()
	got, err := e.Yield(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	design, err := resolveDesign(req.Design)
	if err != nil {
		t.Fatal(err)
	}
	chip, err := core.New(design, req.NPrimary)
	if err != nil {
		t.Fatal(err)
	}
	want, err := chip.AnalyzeYield(req.P, req.Runs, req.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Yield != want.Yield || got.EffectiveYield != want.EffectiveYield {
		t.Errorf("engine yield %v/%v differs from core %v/%v",
			got.Yield, got.EffectiveYield, want.Yield, want.EffectiveYield)
	}
}

func TestEngineRecommendMatchesCore(t *testing.T) {
	e := testEngine(8)
	req := RecommendRequest{P: 0.95, NPrimary: 60, Runs: 400, Seed: 11}
	got, err := e.Recommend(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.RecommendDesign(req.P, req.NPrimary, req.Runs, req.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Best != want.Best.Name {
		t.Errorf("engine recommends %q, core recommends %q", got.Best, want.Best.Name)
	}
	if len(got.Analyses) != len(want.Analyses) {
		t.Fatalf("analysis count %d vs %d", len(got.Analyses), len(want.Analyses))
	}
	for i, a := range got.Analyses {
		if a.Yield != want.Analyses[i].Yield {
			t.Errorf("analysis %d yield %v vs core %v", i, a.Yield, want.Analyses[i].Yield)
		}
	}
}

func TestRecommendPrimesPerDesignYieldCache(t *testing.T) {
	e := testEngine(16)
	req := RecommendRequest{P: 0.95, NPrimary: 60, Runs: 400, Seed: 11}
	rec, err := e.Recommend(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// Drilling into any analyzed design with identical parameters must be a
	// cache hit, not a recomputation.
	computed := e.Stats().Completed
	for _, a := range rec.Analyses {
		resp, err := e.Yield(context.Background(), YieldRequest{
			Design: a.Design, NPrimary: req.NPrimary, P: req.P, Runs: req.Runs, Seed: req.Seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Cached {
			t.Errorf("%s: follow-up yield not served from cache", a.Design)
		}
		if resp.Yield != a.Yield {
			t.Errorf("%s: cached yield %v differs from recommend analysis %v", a.Design, resp.Yield, a.Yield)
		}
	}
	if got := e.Stats().Completed; got != computed {
		t.Errorf("follow-up yields ran %d extra simulations", got-computed)
	}
}

// TestRecommendSharesYieldCache pins /v1/recommend to the /v1/yield
// scenarios of its parameters: after a /v1/yield of every design, the
// recommendation runs no simulation and is cached; a cold recommendation
// looks each design up in the "yield" namespace and has no namespace of
// its own.
func TestRecommendSharesYieldCache(t *testing.T) {
	const params = `"n_primary":60,"p":0.95,"runs":400,"seed":11`
	e := testEngine(16)
	h := NewHandler(e, nil, nil)
	for _, d := range layout.AllDesigns() {
		body := `{"design":"` + d.Name + `",` + params + `}`
		if w := doHandler(t, h, http.MethodPost, "/v1/yield", body, nil); w.Code != http.StatusOK {
			t.Fatalf("%s: /v1/yield status %d: %s", d.Name, w.Code, w.Body)
		}
	}
	completed := e.Stats().Completed
	w := doHandler(t, h, http.MethodPost, "/v1/recommend", `{`+params+`}`, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("/v1/recommend status %d: %s", w.Code, w.Body)
	}
	var rec RecommendResponse
	if err := json.Unmarshal(w.Body.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Completed; got != completed {
		t.Errorf("recommend after per-design yields ran %d simulations, want 0", got-completed)
	}
	if !rec.Cached {
		t.Error("recommend over cached designs reported cached: false")
	}
	for _, a := range rec.Analyses {
		if a.Cached {
			t.Errorf("%s: analysis entry reported cached: true", a.Design)
		}
	}

	cold := testEngine(16)
	if _, err := cold.Recommend(context.Background(), RecommendRequest{P: 0.95, NPrimary: 60, Runs: 400, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cold.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exp, err := telemetry.ParseExposition(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := sampleValue(exp, "dmfb_cache_misses_total", `kind="yield"`); got != 4 {
		t.Errorf(`cold recommend: cache misses{kind="yield"} = %v, want 4`, got)
	}
	for _, s := range exp.Samples {
		if strings.Contains(s.Labels, `kind="recommend"`) {
			t.Errorf("cold recommend exposed a recommend cache series: %s{%s}", s.Name, s.Labels)
		}
	}
}

func TestEngineYieldCaching(t *testing.T) {
	e := testEngine(8)
	first, err := e.Yield(context.Background(), yieldReq())
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Error("first request reported cached")
	}
	second, err := e.Yield(context.Background(), yieldReq())
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("repeat request not served from cache")
	}
	if second.Yield != first.Yield {
		t.Errorf("cached yield %v differs from computed %v", second.Yield, first.Yield)
	}
	st := e.Stats()
	if st.Completed != 1 {
		t.Errorf("Completed = %d, want 1", st.Completed)
	}
	if st.CacheHits == 0 {
		t.Error("cache hits not counted")
	}

	// A different seed is a different result and must recompute.
	other := yieldReq()
	other.Seed = 8
	resp, err := e.Yield(context.Background(), other)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Error("different seed served from cache")
	}
}

func TestEngineCacheEvictionRecomputes(t *testing.T) {
	e := testEngine(1) // room for exactly one result
	a := yieldReq()
	b := yieldReq()
	b.P = 0.9
	if _, err := e.Yield(context.Background(), a); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Yield(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	resp, err := e.Yield(context.Background(), a) // evicted by b
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Error("evicted entry served from cache")
	}
	if got := e.Stats().Completed; got != 3 {
		t.Errorf("Completed = %d, want 3 (a, b, a-again)", got)
	}
}

func TestEngineSingleFlightCollapsesConcurrentRequests(t *testing.T) {
	e := NewEngine(EngineConfig{CacheSize: 8, DefaultRuns: 4000, MaxConcurrent: 32})
	req := YieldRequest{Design: "DTMB(3,6)", NPrimary: 100, P: 0.95, Runs: 4000, Seed: 3}

	const callers = 16
	var (
		wg    sync.WaitGroup
		start = make(chan struct{})
		resps [callers]YieldResponse
		errs  [callers]error
	)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resps[i], errs[i] = e.Yield(context.Background(), req)
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if resps[i].Yield != resps[0].Yield {
			t.Errorf("caller %d yield %v differs from %v", i, resps[i].Yield, resps[0].Yield)
		}
	}
	// Whether a caller joined the flight or arrived after completion and hit
	// the cache, the simulation must have executed exactly once.
	if got := e.Stats().Completed; got != 1 {
		t.Errorf("Completed = %d, want 1 — single-flight failed to collapse", got)
	}
}

func TestFlightFollowerHonorsOwnCancellation(t *testing.T) {
	g := newFlightGroup()
	k := key("a", 1)
	leaderStarted := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		_, _, _ = g.Do(context.Background(), k, func() (sweep.PointResult, error) {
			close(leaderStarted)
			<-release
			return yielded(1), nil
		})
	}()
	<-leaderStarted

	ctx, cancel := context.WithCancel(context.Background())
	followerDone := make(chan error, 1)
	go func() {
		_, err, shared := g.Do(ctx, k, func() (sweep.PointResult, error) { return yielded(2), nil })
		if !shared {
			t.Error("follower did not share the leader's flight")
		}
		followerDone <- err
	}()
	cancel()
	select {
	case err := <-followerDone:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("follower err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("follower still blocked on the leader after its own cancellation")
	}
	close(release)
	<-leaderDone
}

func TestFlightPanicReleasesWaitersAndKey(t *testing.T) {
	g := newFlightGroup()
	k := key("a", 1)
	leaderStarted := make(chan struct{})

	followerDone := make(chan struct{})
	var followerErr error
	var followerShared bool
	go func() {
		defer close(followerDone)
		<-leaderStarted
		// Joins the in-flight call (or, if the leader already panicked,
		// starts a fresh one — both must terminate promptly).
		_, followerErr, followerShared = g.Do(context.Background(), k, func() (sweep.PointResult, error) { return yielded(3), nil })
	}()

	func() {
		defer func() {
			if recover() == nil {
				t.Error("leader panic swallowed instead of propagating")
			}
		}()
		_, _, _ = g.Do(context.Background(), k, func() (sweep.PointResult, error) {
			close(leaderStarted)
			time.Sleep(100 * time.Millisecond) // let the follower join the flight
			panic("boom")
		})
	}()

	select {
	case <-followerDone:
		// A sharing follower must see the panic surfaced as an error, never
		// a nil result with a nil error; a non-sharing late follower
		// legitimately computes its own nil-error result.
		if followerShared && followerErr == nil {
			t.Error("follower shared a panicked flight but got a nil error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("follower still blocked after leader panicked")
	}
	// The key must be usable again, not poisoned by the dead flight.
	v, err, _ := g.Do(context.Background(), k, func() (sweep.PointResult, error) { return yielded(4), nil })
	if err != nil || v.Yield != 4 {
		t.Errorf("key poisoned after panic: v=%v err=%v", v, err)
	}
}

func TestEngineCancelledContext(t *testing.T) {
	e := testEngine(8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Yield(ctx, yieldReq()); !errors.Is(err, context.Canceled) {
		t.Errorf("Yield with cancelled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := e.Recommend(ctx, RecommendRequest{P: 0.9, NPrimary: 30, Runs: 100}); !errors.Is(err, context.Canceled) {
		t.Errorf("Recommend with cancelled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := e.Reconfigure(ctx, ReconfigureRequest{Design: "dtmb26", NPrimary: 30}); !errors.Is(err, context.Canceled) {
		t.Errorf("Reconfigure with cancelled ctx: err = %v, want context.Canceled", err)
	}
	// A failed computation must not be cached: retry with a live context.
	resp, err := e.Yield(context.Background(), yieldReq())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Error("cancelled attempt left a cache entry")
	}
}

func TestEngineValidation(t *testing.T) {
	e := testEngine(8)
	ctx := context.Background()
	cases := []YieldRequest{
		{Design: "", NPrimary: 60, P: 0.95},
		{Design: "DTMB(9,9)", NPrimary: 60, P: 0.95},
		{Design: "DTMB(2,6)", NPrimary: 0, P: 0.95},
		{Design: "DTMB(2,6)", NPrimary: 60, P: 1.5},
		{Design: "DTMB(2,6)", NPrimary: 60, P: 0.95, Runs: -1},
		{Design: "DTMB(2,6)", NPrimary: 60, P: 0.95, Runs: MaxRuns + 1},
		{Design: "DTMB(2,6)", NPrimary: MaxNPrimary + 1, P: 0.95},
	}
	for i, req := range cases {
		if _, err := e.Yield(ctx, req); !errors.Is(err, ErrInvalidRequest) {
			t.Errorf("case %d: err = %v, want ErrInvalidRequest", i, err)
		}
	}
	if _, err := e.Reconfigure(ctx, ReconfigureRequest{Design: "dtmb26", NPrimary: 30, FaultyCells: []int{-1}}); !errors.Is(err, ErrInvalidRequest) {
		t.Errorf("negative cell: err = %v, want ErrInvalidRequest", err)
	}
	if _, err := e.Reconfigure(ctx, ReconfigureRequest{Design: "dtmb26", NPrimary: 30, FaultyCells: []int{1 << 20}}); !errors.Is(err, ErrInvalidRequest) {
		t.Errorf("out-of-range cell: err = %v, want ErrInvalidRequest", err)
	}
	if _, err := e.Reconfigure(ctx, ReconfigureRequest{Design: "dtmb26", NPrimary: 30, FaultyCells: make([]int, MaxFaultyCells+1)}); !errors.Is(err, ErrInvalidRequest) {
		t.Errorf("oversized fault list: err = %v, want ErrInvalidRequest", err)
	}
	// Per-field caps hold, but the combined work cap must reject the product.
	big := YieldRequest{Design: "DTMB(2,6)", NPrimary: MaxNPrimary, P: 0.95, Runs: MaxRuns}
	if _, err := e.Yield(ctx, big); !errors.Is(err, ErrInvalidRequest) {
		t.Errorf("work cap: err = %v, want ErrInvalidRequest", err)
	}
	// The cap also applies when runs is defaulted by the engine.
	huge := NewEngine(EngineConfig{DefaultRuns: MaxRuns})
	if _, err := huge.Recommend(ctx, RecommendRequest{P: 0.95, NPrimary: MaxNPrimary}); !errors.Is(err, ErrInvalidRequest) {
		t.Errorf("work cap with defaulted runs: err = %v, want ErrInvalidRequest", err)
	}
}

func TestEngineReconfigure(t *testing.T) {
	e := testEngine(8)
	// No faults: trivially OK with zero assignments.
	resp, err := e.Reconfigure(context.Background(), ReconfigureRequest{Design: "DTMB(2,6)", NPrimary: 60})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || len(resp.Assignments) != 0 {
		t.Errorf("fault-free chip: OK=%v assignments=%d", resp.OK, len(resp.Assignments))
	}
	// One faulty primary must be repaired by an adjacent spare.
	resp, err = e.Reconfigure(context.Background(), ReconfigureRequest{
		Design: "DTMB(2,6)", NPrimary: 60, FaultyCells: []int{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.FaultyPrimaries+resp.FaultySpares != 1 {
		t.Errorf("fault counts %d+%d, want total 1", resp.FaultyPrimaries, resp.FaultySpares)
	}
	if resp.FaultyPrimaries == 1 && (!resp.OK || len(resp.Assignments) != 1) {
		t.Errorf("single faulty primary not repaired: %+v", resp)
	}
}

func TestResolveDesignAliases(t *testing.T) {
	for _, name := range []string{"DTMB(2,6)", "dtmb26", "DTMB26", " dtmb(2,6) "} {
		d, err := resolveDesign(name)
		if err != nil {
			t.Errorf("resolveDesign(%q): %v", name, err)
			continue
		}
		if d.Name != "DTMB(2,6)" {
			t.Errorf("resolveDesign(%q) = %q", name, d.Name)
		}
	}
	if d, err := resolveDesign("dtmb26alt"); err != nil || d.Name != "DTMB(2,6)alt" {
		t.Errorf("alt alias: %v, %v", d, err)
	}
	if _, err := resolveDesign("nope"); !errors.Is(err, ErrInvalidRequest) {
		t.Errorf("unknown design err = %v", err)
	}
}

// TestResolveDesignAllocatesNothing pins the prebuilt name index: resolving
// a lower-case alias or the paper's own spelling, which every cached
// request does, allocates nothing, and the unknown-design error still lists
// every design in order.
func TestResolveDesignAllocatesNothing(t *testing.T) {
	for _, name := range []string{"dtmb26", "DTMB(2,6)"} {
		if n := testing.AllocsPerRun(100, func() {
			if _, err := resolveDesign(name); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("resolveDesign(%q) allocates %v times, want 0", name, n)
		}
	}
	_, err := resolveDesign("DTMB(9,9)")
	want := `invalid request: unknown design "DTMB(9,9)" (try DTMB(1,6), DTMB(2,6), DTMB(3,6), DTMB(4,4), DTMB(2,6)alt)`
	if err == nil || err.Error() != want {
		t.Errorf("unknown design error = %v, want %s", err, want)
	}
}
