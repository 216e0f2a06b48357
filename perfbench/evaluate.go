package main

import (
	"cmp"
	"context"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"time"

	"dmfb/client"
	"dmfb/internal/layout"
)

// evaluateMixed is the evaluate_mixed workload: two closed-loop clients
// send POST /v2/evaluate through client.Evaluate over a seeded catalog with
// Zipf-style popularity, so one request in ten misses the cache. Misses run
// the whole kernel stack; hits touch only HTTP and the result cache. Each
// pass has its own catalog (fresh seeds), so every pass starts cold.
type evaluateMixed struct {
	seed int64
	// catalog is the number of scenarios of one pass, requests the number
	// of requests each client sends per pass.
	catalog, requests int
	runs              int
	// counts[r] is how many requests of a pass go to the scenario of
	// popularity rank r: one each, the rest apportioned by Zipf weight.
	counts []int

	mu    sync.Mutex
	first map[client.Scenario]int // this pass's request → index of its answer in tally.served
}

func newEvaluateMixed(o options) runner {
	w := &evaluateMixed{seed: o.seed, catalog: 400, requests: 2000, runs: 10000}
	if o.small {
		w.catalog, w.requests, w.runs = 24, 120, 1000
	}
	w.counts = zipfCounts(w.catalog, 2*w.requests, 1.1, 4)
	return w
}

// zipfCounts apportions total requests over n popularity ranks: one each,
// and the rest in proportion to the Zipf weight (v+r)^-s of rank r, by
// largest remainder. Fixed counts give every pass and every seed the same
// number of misses (one per scenario) and hits.
func zipfCounts(n, total int, s, v float64) []int {
	weights := make([]float64, n)
	sum := 0.0
	for r := range weights {
		weights[r] = math.Pow(v+float64(r), -s)
		sum += weights[r]
	}
	rest := total - n
	counts := make([]int, n)
	order := make([]int, n)
	given := 0
	for r, wt := range weights {
		share := float64(rest) * wt / sum
		counts[r] = 1 + int(share)
		given += int(share)
		weights[r] = share - math.Floor(share)
		order[r] = r
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(weights[b], weights[a]) })
	for _, r := range order[:rest-given] {
		counts[r]++
	}
	return counts
}

func (w *evaluateMixed) setup(ctx context.Context, dir string, spans *spanLog) (*system, error) {
	return openStore(ctx, dir, spans)
}

// scenarios is pass k's catalog. It cycles through every combination of
// local and hex footprints, the four canonical designs, n ∈ {100, 240} and
// p ∈ {0.95, 0.99, 0.999}; one entry in four uses the clustered defect
// model, and one p=0.999 entry in three is precision-targeted at ε=0.002
// under a 10×-runs budget. Only the Monte-Carlo seeds come from rng, so
// every pass and every workload seed asks for the same mix of work.
func (w *evaluateMixed) scenarios(rng *rand.Rand) []client.Scenario {
	type combo struct {
		strategy, design string
		n                int
		p                float64
	}
	var combos []combo
	for _, s := range []string{"local", "hex"} {
		for _, d := range layout.AllDesigns() {
			for _, n := range []int{100, 240} {
				for _, p := range []float64{0.95, 0.99, 0.999} {
					combos = append(combos, combo{s, d.Name, n, p})
				}
			}
		}
	}
	out := make([]client.Scenario, w.catalog)
	for i := range out {
		c, round := combos[i%len(combos)], i/len(combos)+i%len(combos)
		sc := client.Scenario{Strategy: c.strategy, Design: c.design, NPrimary: c.n, P: c.p,
			Runs: w.runs, Seed: rng.Int64N(1<<62) + 1}
		if round%4 == 0 {
			sc.DefectModel = "clustered"
		}
		if c.p == 0.999 && round%3 == 1 {
			sc.Epsilon, sc.Runs = 0.002, 10*w.runs
		}
		out[i] = sc
	}
	return out
}

func (w *evaluateMixed) pass(ctx context.Context, sys *system, k int, st *tally) error {
	rng := passRand(w.seed, k)
	cat := w.scenarios(rng)
	// A pass's scenarios never recur in another pass.
	w.mu.Lock()
	w.first = make(map[client.Scenario]int)
	w.mu.Unlock()
	// Popularity ranks map onto a seeded permutation of the catalog, so the
	// hot scenarios are a random mix of cheap and expensive ones; the
	// requests go out in a seeded order, alternately to the two clients.
	perm := rng.Perm(len(cat))
	reqs := make([]int, 0, 2*w.requests)
	for r, n := range w.counts {
		for range n {
			reqs = append(reqs, perm[r])
		}
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	var wg sync.WaitGroup
	for c := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := c; j < len(reqs); j += 2 {
				if ctx.Err() != nil {
					return
				}
				w.evaluate(ctx, sys, cat[reqs[j]], st)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// evaluate sends one request and checks that every answer to the same
// request is the same estimate.
func (w *evaluateMixed) evaluate(ctx context.Context, sys *system, sc client.Scenario, st *tally) {
	trace := st.traceID("evaluate")
	start := time.Now()
	res, err := sys.clientFor(trace).Evaluate(ctx, sc)
	d := time.Since(start)
	st.span(trace, "client.evaluate", start)
	if err != nil {
		st.attempt(1)
		st.fail(1, "evaluate %+v: %v", sc, err)
		return
	}
	st.done(1, res.Cached, d)
	if !res.Cached {
		st.computed(res.Runs)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	i, ok := w.first[sc]
	if !ok {
		w.first[sc] = len(st.served)
		res.Cached = false
		st.keep(served{req: sc, rec: res, count: 1})
		return
	}
	st.mu.Lock()
	sv := &st.served[i]
	sv.count++
	want := sv.rec
	st.mu.Unlock()
	res.Cached = false
	if res != want {
		st.fail(1, "evaluate %+v answered %+v, earlier answer %+v", sc, res, want)
	}
}

// verify has nothing beyond the harness's check: every distinct request's
// first answer is compared with direct evaluation, and every later answer
// was compared with the first as it arrived.
func (w *evaluateMixed) verify(context.Context, *tally) {}
