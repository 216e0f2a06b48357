package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"time"

	"dmfb/client"
	"dmfb/internal/core"
	"dmfb/internal/defects"
	"dmfb/internal/layout"
	"dmfb/internal/reconfig"
	"dmfb/internal/service"
	"dmfb/internal/stats"
	"dmfb/internal/sweep"
	"dmfb/internal/yieldsim"
)

// replaySamples is how many served scenarios a traced run replays, and
// replayRounds how many times each; the per-layer numbers are means over
// all replays.
const (
	replaySamples = 8
	replayRounds  = 2
)

// runTraced is the per-layer run. It runs the workload's fixed work twice
// on fresh systems — untraced, then traced with client and server spans and
// /metrics snapshots around it — so ops_per_s of the two is the tracing
// overhead and the counter deltas repeat exactly for a seed. It then
// replays a seeded sample of the served scenarios through each layer's
// public functions and attributes their time layer by layer.
func runTraced(ctx context.Context, o options) (outcome, error) {
	def := workloads[o.workload]

	hist, err := writeHistory(ctx, o.workdir)
	if err != nil {
		return outcome{}, err
	}
	defer os.RemoveAll(hist)
	r := def.build(o)
	dir, err := copyHistory(hist)
	if err != nil {
		return outcome{}, err
	}
	sys, err := r.setup(ctx, dir, nil)
	if err != nil {
		return outcome{}, fmt.Errorf("setup: %w", err)
	}
	plain := newTally(nil)
	plainElapsed, _, err := measure(ctx, r, sys, plain, def.tracePasses)
	sys.close()
	if err != nil {
		return outcome{}, err
	}

	r = def.build(o)
	spans := newSpanLog()
	if dir, err = copyHistory(hist); err != nil {
		return outcome{}, err
	}
	if sys, err = r.setup(ctx, dir, spans); err != nil {
		return outcome{}, fmt.Errorf("setup: %w", err)
	}
	defer sys.close()
	st := newTally(spans)
	before, err := scrape(sys.regs)
	if err != nil {
		return outcome{}, err
	}
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	elapsed, _, err := measure(ctx, r, sys, st, def.tracePasses)
	if err != nil {
		return outcome{}, err
	}
	runtime.ReadMemStats(&mem1)
	after, err := scrape(sys.regs)
	if err != nil {
		return outcome{}, err
	}
	sys.close()
	checkServed(ctx, st)
	r.verify(ctx, st)

	lt, replayed, err := replay(ctx, sampleServed(st.served, o.seed), spans, st)
	if err != nil {
		return outcome{}, err
	}
	appendUs, err := storeAppendCost(ctx, o.workdir)
	if err != nil {
		return outcome{}, err
	}
	if err := spans.write(o.spans); err != nil {
		return outcome{}, err
	}

	d := func(name string) float64 { return after[name] - before[name] }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	ops := float64(st.ops)
	tracedRate, plainRate := ops/elapsed, float64(plain.ops)/plainElapsed
	hits, misses := d("dmfb_cache_hits_total"), d("dmfb_cache_misses_total")
	memoHits, memoMisses := d("dmfb_kernel_memo_hits_total"), d("dmfb_kernel_memo_misses_total")
	m := map[string]metric{
		"ops_failed_ratio":                   {ratio(float64(st.failed), float64(st.attempted)), "ratio"},
		"trace.ops_per_s":                    {tracedRate, "1/s"},
		"trace.untraced_ops_per_s":           {plainRate, "1/s"},
		"trace.overhead_ratio":               {plainRate / tracedRate, "ratio"},
		"trace.replayed_scenarios":           {float64(replayed), "count"},
		"defects.all_healthy_ratio":          {ratio(d("dmfb_kernel_trials_all_healthy_total"), d("dmfb_kernel_trials_total")), "ratio"},
		"reconfig.memo_hit_ratio":            {ratio(memoHits, memoHits+memoMisses), "ratio"},
		"reconfig.solver_calls":              {d("dmfb_kernel_matcher_invocations_total") - memoHits, "count"},
		"yieldsim.trials":                    {float64(st.trials), "count"},
		"yieldsim.trials_run":                {d("dmfb_kernel_trials_total"), "count"},
		"yieldsim.busy_s":                    {d("dmfb_kernel_chunk_duration_seconds_sum"), "s"},
		"yieldsim.early_stops":               {d("dmfb_kernel_early_stops_total"), "count"},
		"yieldsim.realized_runs_mean":        {ratio(d("dmfb_kernel_realized_runs_sum"), d("dmfb_kernel_realized_runs_count")), "count"},
		"sweep.point_busy_s":                 {d("dmfb_sweep_point_duration_seconds_sum"), "s"},
		"service.cache_hit_ratio":            {ratio(hits, hits+misses), "ratio"},
		"service.cache_hits":                 {hits, "count"},
		"service.cache_misses":               {misses, "count"},
		"service.flight_shared":              {d("dmfb_flight_shared_total"), "count"},
		"service.hit_p99_ms":                 {quantile(st.hit, 0.99), "ms"},
		"service.admission_wait_s":           {d("dmfb_admission_wait_seconds_sum"), "s"},
		"service.admissions":                 {d("dmfb_admission_wait_seconds_count"), "count"},
		"service.encode_us_per_record":       {encodeCost(st.served), "us"},
		"service.stream_flushes":             {d("dmfb_stream_flushes_total"), "count"},
		"service.store_append_us_per_record": {appendUs, "us"},
		"service.store_disk_bytes":           {after["dmfb_job_store_disk_bytes"], "bytes"},
		"service.store_write_errors":         {d("dmfb_store_write_errors_total"), "count"},
		"dispatch.shards_leased":             {d("dmfb_dispatch_shards_leased_total"), "count"},
		"dispatch.shards_completed":          {d("dmfb_dispatch_shards_completed_total"), "count"},
		"dispatch.shards_expired":            {d("dmfb_dispatch_shards_expired_total"), "count"},
		"dispatch.retries":                   {d("dmfb_retries_total"), "count"},
		"dispatch.shards_quarantined":        {d("dmfb_shards_quarantined_total"), "count"},
		"dispatch.workers_active":            {after["dmfb_workers_active"], "count"},
		"dispatch.shard_mean_ms":             {1000 * ratio(d("dmfb_dispatch_shard_duration_seconds_sum"), d("dmfb_dispatch_shard_duration_seconds_count")), "ms"},
		"process.alloc_mb_per_op":            {ratio(float64(mem1.TotalAlloc-mem0.TotalAlloc)/1e6, ops), "MB"},
		"process.gc_cycles":                  {float64(mem1.NumGC - mem0.NumGC), "count"},
	}
	for k, v := range lt.metrics() {
		m[k] = v
	}
	res := result{Correct: st.failed == 0, Attempted: st.attempted, Failed: st.failed, Metrics: m}
	return outcome{
		record:   record{Passes: def.tracePasses, Result: res},
		failures: st.failures,
	}, nil
}

// sampleServed picks the seeded replay sample.
func sampleServed(all []served, seed int64) []served {
	perm := passRand(seed, -1).Perm(len(all))
	out := make([]served, 0, replaySamples)
	for _, i := range perm[:min(replaySamples, len(perm))] {
		out = append(out, all[i])
	}
	return out
}

// layerTotals sums the replayed scenarios' per-layer costs.
type layerTotals struct {
	scenarios                          int     // replays summed: one per scenario and round
	build, allocKB, setup              float64 // ms, KB, µs
	inject, transpose, feasible, solve time.Duration
	trials, words, calls               int
	estimate, estimateSelf             float64 // ms
	sweepSelf, engineSelf, httpSelf    float64 // ms
}

func (t layerTotals) metrics() map[string]metric {
	n := float64(max(t.scenarios, 1))
	per := func(d time.Duration, k int) float64 {
		if k == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(k)
	}
	return map[string]metric{
		"layout.build_ms":               {t.build / n, "ms"},
		"layout.alloc_kb":               {t.allocKB / n, "KB"},
		"defects.inject_ns_per_trial":   {per(t.inject, t.trials), "ns"},
		"defects.transpose_ns_per_word": {per(t.transpose, t.words), "ns"},
		"reconfig.session_setup_us":     {t.setup / n, "us"},
		"reconfig.feasible_ns_per_call": {per(t.feasible, t.calls), "ns"},
		"reconfig.solve_ns_per_call":    {per(t.solve, t.calls), "ns"},
		"yieldsim.estimate_ms":          {t.estimate / n, "ms"},
		"yieldsim.self_ms":              {t.estimateSelf / n, "ms"},
		"sweep.evaluate_self_ms":        {t.sweepSelf / n, "ms"},
		"service.engine_self_ms":        {t.engineSelf / n, "ms"},
		"service.http_self_ms":          {t.httpSelf / n, "ms"},
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// replay re-runs each sampled scenario replayRounds times, layer by layer:
// the array build, the session set-up, and the kernel's own chunk loop
// (inject → Finalize → FeasibleWords per 64-trial word, chunks re-seeded
// from stats.SeedStream as the kernel does); then YieldModelContext,
// sweep.EvaluateScenario, Engine.EvaluateScenario and the HTTP call, each
// on the same inputs. Every layer must reproduce the served success count;
// a scenario where one does not, in any round, is failed and left out of
// the numbers.
func replay(ctx context.Context, sample []served, spans *spanLog, st *tally) (layerTotals, int, error) {
	httpc := newHTTPClient()
	defer httpc.CloseIdleConnections()
	per := make([]layerTotals, len(sample))
	failed := make([]bool, len(sample))
	for round := range replayRounds {
		// Fresh engines each round, so every engine and HTTP call misses.
		direct := service.NewEngine(service.EngineConfig{Workers: 1})
		srv := httptest.NewServer(service.NewHandler(service.NewEngine(service.EngineConfig{Workers: 1}), nil, nil))
		for i, sv := range sample {
			if failed[i] {
				continue
			}
			trace := fmt.Sprintf("replay-%d-%d", round, i)
			cli := client.New(srv.URL, client.WithHTTPClient(httpc), client.WithRequestID(trace))
			one, err := replayOne(ctx, sv, direct, cli, spans, trace, (i+round)%2 == 1)
			if err != nil {
				failed[i] = true
				st.fail(sv.count, "replay of %+v: %v", sv.req, err)
				continue
			}
			per[i].add(one)
		}
		srv.Close()
	}
	var tot layerTotals
	replayed := 0
	for i, f := range failed {
		if !f {
			tot.add(per[i])
			replayed++
		}
	}
	return tot, replayed, ctx.Err()
}

func (t *layerTotals) add(o layerTotals) {
	t.scenarios += o.scenarios
	t.build += o.build
	t.allocKB += o.allocKB
	t.setup += o.setup
	t.inject += o.inject
	t.transpose += o.transpose
	t.feasible += o.feasible
	t.solve += o.solve
	t.trials += o.trials
	t.words += o.words
	t.calls += o.calls
	t.estimate += o.estimate
	t.estimateSelf += o.estimateSelf
	t.sweepSelf += o.sweepSelf
	t.engineSelf += o.engineSelf
	t.httpSelf += o.httpSelf
}

// replayOne replays one served scenario; see replay. The four whole-layer
// calls run innermost first, or outermost first when reverse is set, so
// that warm-up left by one call for the next cancels out across replays;
// each starts after a forced collection.
func replayOne(ctx context.Context, sv served, engine *service.Engine, cli *client.Client, spans *spanLog, trace string, reverse bool) (layerTotals, error) {
	t := layerTotals{scenarios: 1}
	sc := scenarioOf(sv.req)
	want := sv.rec.Successes
	root := spans.newID()
	rootStart := time.Now()
	child := func(name string, start, end time.Time) {
		spans.add(spans.newID(), root, trace, name, start, end)
	}

	design, err := layout.DesignByName(sc.Design)
	if err != nil {
		return t, err
	}
	build := layout.BuildWithPrimaryTarget
	if sc.Strategy == sweep.Hex {
		build = layout.BuildHexagonWithPrimaryTarget
	}
	// The build is timed warm, as a server that builds arrays all day runs
	// it: the first, untimed build pays the cold page faults.
	if _, err := build(design, sc.NPrimary); err != nil {
		return t, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	arr, err := build(design, sc.NPrimary)
	end := time.Now()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return t, err
	}
	child("layout.build", start, end)
	t.build = ms(end.Sub(start))
	t.allocKB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024

	// The kernel's per-worker set-up: a session with the memo armed (the
	// memo refuses arrays above its cell limit, as in the kernel) and a
	// trial batch. A second, unmemoized session times the bare solver.
	start = time.Now()
	sess, err := reconfig.NewSession(arr, reconfig.Options{})
	if err != nil {
		return t, err
	}
	sess.EnableMemo(reconfig.DefaultMemoCapacity)
	tb := defects.NewTrialBatch(arr.NumCells())
	end = time.Now()
	child("reconfig.session_setup", start, end)
	t.setup = float64(end.Sub(start).Nanoseconds()) / 1e3
	bare, err := reconfig.NewSession(arr, reconfig.Options{})
	if err != nil {
		return t, err
	}

	model := sc.Model()
	cp := model.Params(sc.P, arr.NumCells())
	budget := sv.req.Runs
	chunk := yieldsim.DefaultChunkSize
	numChunks := (budget + chunk - 1) / chunk
	seeds := stats.SeedStream(sv.req.Seed, numChunks)
	in := defects.NewInjector(0)
	successes := 0
	kernelStart := time.Now()
	// An adaptive estimate stops at a chunk boundary; the served run count
	// says which one.
	for c := 0; c < numChunks && t.trials < sv.rec.Runs; c++ {
		in.Reseed(seeds[c])
		runs := min(chunk, budget-c*chunk)
		for off := 0; off < runs; off += defects.WordTrials {
			n := min(defects.WordTrials, runs-off)
			a := time.Now()
			if model.Clustered {
				if _, err := in.ClusteredBatch(arr, cp, n, tb); err != nil {
					return t, err
				}
			} else {
				in.BernoulliBatch(arr.NumCells(), sc.P, n, tb)
			}
			b := time.Now()
			t.inject += b.Sub(a)
			occ := tb.Occupied()
			successes += n - bits.OnesCount64(occ)
			if occ == 0 {
				continue
			}
			tb.Finalize()
			c2 := time.Now()
			t.transpose += c2.Sub(b)
			t.words++
			var ok uint64
			for m := occ; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				v, err := sess.FeasibleWords(tb.Row(i))
				if err != nil {
					return t, err
				}
				if v {
					ok |= 1 << uint(i)
					successes++
				}
				t.calls++
			}
			d := time.Now()
			t.feasible += d.Sub(c2)
			var bareOK uint64
			for m := occ; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				if v, _ := bare.FeasibleWords(tb.Row(i)); v {
					bareOK |= 1 << uint(i)
				}
			}
			t.solve += time.Since(d)
			if bareOK != ok {
				return t, fmt.Errorf("memoized and direct feasibility verdicts differ in chunk %d", c)
			}
		}
		t.trials += runs
	}
	child("yieldsim.kernel_replay", kernelStart, time.Now())
	if successes != want || t.trials != sv.rec.Runs {
		return t, fmt.Errorf("kernel replay gave %d successes in %d trials, served %d in %d",
			successes, t.trials, want, sv.rec.Runs)
	}

	mc := yieldsim.NewMonteCarlo(sv.req.Seed)
	mc.Runs, mc.Workers, mc.Epsilon = budget, 1, sv.req.Epsilon
	var estimate, sweepMs, engineMs, httpMs float64
	missed := func(rec service.ScenarioRecord, err error) (int, error) {
		if err == nil && rec.Cached {
			err = fmt.Errorf("served from the cache")
		}
		return rec.Successes, err
	}
	calls := []struct {
		name string
		run  func() (int, error)
		ms   *float64
	}{
		{"yieldsim.estimate", func() (int, error) {
			res, err := mc.YieldModelContext(ctx, arr, sc.P, model)
			return res.Successes, err
		}, &estimate},
		{"sweep.evaluate", func() (int, error) {
			res, err := sweep.EvaluateScenario(ctx, sc, core.SimParams{Runs: budget, Seed: sv.req.Seed, Workers: 1, Epsilon: sv.req.Epsilon})
			return res.Successes, err
		}, &sweepMs},
		{"service.engine_evaluate", func() (int, error) { return missed(engine.EvaluateScenario(ctx, sv.req)) }, &engineMs},
		{"http.evaluate", func() (int, error) { return missed(cli.Evaluate(ctx, sv.req)) }, &httpMs},
	}
	if reverse {
		slices.Reverse(calls)
	}
	for _, c := range calls {
		runtime.GC()
		start := time.Now()
		got, err := c.run()
		end := time.Now()
		if err != nil {
			return t, fmt.Errorf("%s: %w", c.name, err)
		}
		child(c.name, start, end)
		if got != want {
			return t, fmt.Errorf("%s gave %d successes, served %d", c.name, got, want)
		}
		*c.ms = ms(end.Sub(start))
	}
	t.estimate = estimate
	t.estimateSelf = estimate - t.setup/1e3 - ms(t.inject+t.transpose+t.feasible)
	t.sweepSelf = sweepMs - t.build - estimate
	t.engineSelf = engineMs - sweepMs
	t.httpSelf = httpMs - engineMs
	spans.add(root, 0, trace, "replay", rootStart, time.Now())
	return t, nil
}

// encodeCost is the NDJSON encoding cost per record: the sweep and job
// streams' json.Encoder over the workload's served records.
func encodeCost(all []served) float64 {
	if len(all) == 0 {
		return 0
	}
	enc := json.NewEncoder(io.Discard)
	const records = 4000
	start := time.Now()
	for i := range records {
		if err := enc.Encode(service.SweepRecord{Index: i, ScenarioRecord: all[i%len(all)].rec}); err != nil {
			return 0
		}
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3 / records
}

// storeAppendCost is the durable store's cost per result record: the
// median time of a closedFormJob on the file store minus the same job on
// the in-memory store, divided by the record count.
func storeAppendCost(ctx context.Context, workdir string) (float64, error) {
	const points, repeats = closedFormPoints, 5
	timeJobs := func(store *service.Store) (float64, error) {
		times := make([]float64, repeats)
		for i := range times {
			start := time.Now()
			j, err := store.Create(ctx, closedFormJob(1))
			if err != nil {
				return 0, err
			}
			st, err := j.Wait(ctx)
			if err != nil {
				return 0, err
			}
			if st.State != service.JobCompleted || st.PointsDone != points {
				return 0, fmt.Errorf("closed-form job ended %s after %d points", st.State, st.PointsDone)
			}
			times[i] = time.Since(start).Seconds()
		}
		return quantile(times, 0.5), nil
	}
	mem := service.NewJobStore(service.NewEngine(service.EngineConfig{}), service.JobStoreConfig{})
	defer mem.Close(context.Background())
	memS, err := timeJobs(mem)
	if err != nil {
		return 0, err
	}
	dir, err := os.MkdirTemp(workdir, "append-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	file, err := service.NewFileJobStore(service.NewEngine(service.EngineConfig{}), service.JobStoreConfig{}, dir)
	if err != nil {
		return 0, err
	}
	defer file.Close(context.Background())
	if err := waitReplayed(ctx, file); err != nil {
		return 0, err
	}
	fileS, err := timeJobs(file)
	if err != nil {
		return 0, err
	}
	return (fileS - memS) / points * 1e6, nil
}
