package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"sync"
	"time"

	"dmfb/client"
	"dmfb/internal/core"
	"dmfb/internal/service"
	"dmfb/internal/sweep"
	"dmfb/internal/telemetry"
)

// runner is one workload instance. A fresh runner is built for every
// measured phase, so per-phase state (first responses, kept streams) never
// leaks between phases.
type runner interface {
	// setup builds a fresh system under test over the durable job store in
	// dir and returns once the store has replayed and the system is ready
	// to serve. The system owns dir and removes it when closed. spans, when
	// non-nil, records a server span per request.
	setup(ctx context.Context, dir string, spans *spanLog) (*system, error)
	// pass runs pass k of the workload: its inputs are a pure function of
	// the seed and k. Operations that fail are counted in st, not returned;
	// an error means the pass could not run at all.
	pass(ctx context.Context, sys *system, k int, st *tally) error
	// verify runs the workload's own output checks after the timed phase;
	// the served estimates in st are checked by the harness.
	verify(ctx context.Context, st *tally)
}

// workloadDef names a workload and sizes its harness.
type workloadDef struct {
	build func(o options) runner
	// setupRepeats is how many times set-up runs; setup_s is their median.
	setupRepeats int
	// passSeconds is the nominal length of one pass on a 2-vCPU machine;
	// --seconds is converted to a whole number of passes with it.
	passSeconds float64
	// tracePasses is the fixed work of each phase of a traced run.
	tracePasses int
}

var workloads = map[string]workloadDef{
	"evaluate_mixed":  {build: newEvaluateMixed, setupRepeats: 25, passSeconds: 5, tracePasses: 1},
	"distributed_job": {build: newDistributedJob, setupRepeats: 25, passSeconds: 1.25, tracePasses: 4},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// passRand is the seeded generator of pass k's inputs.
func passRand(seed int64, k int) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), uint64(k)+1))
}

// system is one running service under test.
type system struct {
	url string
	// httpc is the one HTTP client every load generator shares.
	httpc  *http.Client
	client *client.Client
	// regs are the metric registries of every engine in the system (the
	// server's first); their expositions are what GET /metrics serves.
	regs []*telemetry.Registry
	stop func()
	once sync.Once
}

// close tears the system down; later calls do nothing.
func (s *system) close() { s.once.Do(s.stop) }

// clientFor returns the typed client for one operation: the shared client,
// or — when the operation is traced — one that tags its requests with the
// operation's trace ID so the server span joins the client span.
func (s *system) clientFor(trace string) *client.Client {
	if trace == "" {
		return s.client
	}
	return client.New(s.url, client.WithHTTPClient(s.httpc), client.WithRequestID(trace))
}

// newHTTPClient is the transport every load generator uses: keep-alive
// connections to one host, two idle per host (one per load goroutine).
func newHTTPClient() *http.Client {
	return &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}
}

// serve starts an httptest server for h and wraps the system around it.
func serve(h http.Handler, spans *spanLog, regs []*telemetry.Registry, stop func()) *system {
	srv := httptest.NewServer(traceHandler(h, spans))
	httpc := newHTTPClient()
	return &system{
		url:    srv.URL,
		httpc:  httpc,
		client: client.New(srv.URL, client.WithHTTPClient(httpc)),
		regs:   regs,
		stop: func() {
			if stop != nil {
				stop()
			}
			srv.Close()
			httpc.CloseIdleConnections()
		},
	}
}

// served is one scenario the system answered and the estimate it served:
// the input of the direct-evaluation check and of the traced replay.
type served struct {
	req service.ScenarioRequest // as requested: Runs is the trial budget
	rec service.ScenarioRecord  // as served
	// count is how many operations returned this answer; a wrong answer
	// fails all of them.
	count int64
}

// tally accumulates one measured phase.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	ops       int64
	// trials sums the realized trial counts of the answers computed (not
	// served from the cache) — the kernel work the answers account for.
	trials    int64
	miss, hit []float64 // operation latencies, ms
	served    []served
	failures  []string
	spans     *spanLog // nil when untraced
}

func newTally(spans *spanLog) *tally { return &tally{spans: spans} }

// done records n completed operations of one timed request.
func (s *tally) done(n int64, hit bool, d time.Duration) {
	ms := float64(d.Nanoseconds()) / 1e6
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempted += n
	s.ops += n
	if hit {
		s.hit = append(s.hit, ms)
	} else {
		s.miss = append(s.miss, ms)
	}
}

// fail records n failed operations, keeping the first messages.
func (s *tally) fail(n int64, format string, args ...any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failed += n
	if len(s.failures) < 8 {
		s.failures = append(s.failures, fmt.Sprintf(format, args...))
	}
}

// completed is the number of operations completed so far.
func (s *tally) completed() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ops
}

// attempt records n operations that were tried but never completed.
func (s *tally) attempt(n int64) {
	s.mu.Lock()
	s.attempted += n
	s.mu.Unlock()
}

// computed records the realized trials of answers the system computed.
func (s *tally) computed(trials int) {
	s.mu.Lock()
	s.trials += int64(trials)
	s.mu.Unlock()
}

func (s *tally) keep(sv served) {
	s.mu.Lock()
	s.served = append(s.served, sv)
	s.mu.Unlock()
}

// traceID returns a fresh operation trace ID, or "" when untraced.
func (s *tally) traceID(kind string) string {
	if s.spans == nil {
		return ""
	}
	return fmt.Sprintf("%s-%d", kind, s.spans.newID())
}

// span records a client-side operation span when tracing.
func (s *tally) span(trace, name string, start time.Time) {
	if s.spans != nil {
		s.spans.add(s.spans.newID(), 0, trace, name, start, time.Now())
	}
}

// measure runs passes passes and returns the elapsed wall time and each
// pass's rate of completed operations per second. Each pass's duration
// goes to standard error.
func measure(ctx context.Context, r runner, sys *system, st *tally, passes int) (float64, []float64, error) {
	start := time.Now()
	durations := make([]string, passes)
	rates := make([]float64, passes)
	for k := range passes {
		ops := st.completed()
		t := time.Now()
		if err := r.pass(ctx, sys, k, st); err != nil {
			return 0, nil, fmt.Errorf("pass %d: %w", k, err)
		}
		d := time.Since(t).Seconds()
		durations[k] = fmt.Sprintf("%.2f", d)
		rates[k] = float64(st.completed()-ops) / d
	}
	fmt.Fprintf(os.Stderr, "perfbench: pass seconds %v\n", durations)
	return time.Since(start).Seconds(), rates, ctx.Err()
}

// passesFor is the fixed work of a run measuring about seconds: whole
// passes of the workload's nominal pass length. A fixed pass count keeps
// the system's end state — caches, stored jobs, the job plans each worker
// keeps — and every counter the same from run to run, whatever the
// machine's speed at the time.
func passesFor(def workloadDef, seconds float64) int {
	return max(1, int(math.Round(seconds/def.passSeconds)))
}

// timeSetup sets the system up once untimed (cold code paths) and then
// repeats times, each over a fresh copy of the store history and after a
// forced collection, so neither the copy nor a GC cycle lands in the
// timing; all but the last system are torn down. It returns the median
// set-up time and the last system.
func timeSetup(ctx context.Context, r runner, repeats int, hist string) (float64, *system, error) {
	times := make([]float64, repeats)
	var sys *system
	for i := -1; i < repeats; i++ {
		dir, err := copyHistory(hist)
		if err != nil {
			return 0, nil, err
		}
		runtime.GC()
		start := time.Now()
		s, err := r.setup(ctx, dir, nil)
		if err != nil {
			return 0, nil, fmt.Errorf("setup: %w", err)
		}
		if i < 0 {
			s.close()
			continue
		}
		times[i] = time.Since(start).Seconds()
		if i < repeats-1 {
			s.close()
		} else {
			sys = s
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: set-up seconds %.4f\n", times)
	return quantile(times, 0.5), sys, nil
}

// historyJobs is the number of finished jobs in the store history every
// set-up replays; each is a closedFormJob.
const historyJobs = 24

// closedFormPoints is the record count of a closedFormJob.
const closedFormPoints = 202

// closedFormJob is a 202-point sweep of the no-redundancy strategy, whose
// yield is closed-form: a job of it costs little beyond its records.
func closedFormJob(seed int64) service.SweepRequest {
	return service.SweepRequest{
		Strategies: []string{"none"},
		NPrimaries: []int{100, 200},
		PMin:       0.90, PMax: 1.00, PPoints: 101,
		Seed: seed,
	}
}

// writeHistory writes the store history once per run: finished
// closed-form sweep jobs in a durable job-store directory, as a server
// restarted over its store directory finds them.
func writeHistory(ctx context.Context, workdir string) (string, error) {
	dir, err := os.MkdirTemp(workdir, "history-")
	if err != nil {
		return "", err
	}
	store, err := service.NewFileJobStore(service.NewEngine(service.EngineConfig{}), service.JobStoreConfig{}, dir)
	if err != nil {
		os.RemoveAll(dir)
		return "", err
	}
	defer store.Close(context.Background())
	if err := waitReplayed(ctx, store); err != nil {
		return "", err
	}
	for i := range historyJobs {
		j, err := store.Create(ctx, closedFormJob(int64(i+1)))
		if err != nil {
			return "", fmt.Errorf("write store history: %w", err)
		}
		if st, err := j.Wait(ctx); err != nil {
			return "", err
		} else if st.State != service.JobCompleted {
			return "", fmt.Errorf("store history job ended %s", st.State)
		}
	}
	return dir, nil
}

// copyHistory copies the store history into a fresh directory.
func copyHistory(hist string) (string, error) {
	dir, err := os.MkdirTemp(filepath.Dir(hist), "store-")
	if err != nil {
		return "", err
	}
	if err := os.CopyFS(dir, os.DirFS(hist)); err != nil {
		os.RemoveAll(dir)
		return "", fmt.Errorf("copy store history: %w", err)
	}
	return dir, nil
}

// waitReplayed waits for a durable store to finish replaying its
// directory.
func waitReplayed(ctx context.Context, store *service.Store) error {
	for !store.Ready() {
		if err := ctx.Err(); err != nil {
			return err
		}
		time.Sleep(50 * time.Microsecond)
	}
	return nil
}

// openStore is the set-up shared by the single-server workloads: an engine
// and its durable job store over dir, served over httptest, ready once the
// store has replayed.
func openStore(ctx context.Context, dir string, spans *spanLog) (*system, error) {
	e := service.NewEngine(service.EngineConfig{})
	store, err := service.NewFileJobStore(e, service.JobStoreConfig{}, dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	sys := serve(service.NewHandler(e, store, nil), spans, []*telemetry.Registry{e.Registry()}, func() {
		_ = store.Close(context.Background()) // these workloads run no jobs
		os.RemoveAll(dir)
	})
	if err := waitReplayed(ctx, store); err != nil {
		sys.close()
		return nil, err
	}
	if err := sys.client.Ready(ctx); err != nil {
		sys.close()
		return nil, err
	}
	return sys, nil
}

// runUntraced is the end-to-end measurement: set-up timed on its own, the
// measured phase timed only by the outer clock, then the output checks.
func runUntraced(ctx context.Context, o options) (outcome, error) {
	def := workloads[o.workload]
	r := def.build(o)
	hist, err := writeHistory(ctx, o.workdir)
	if err != nil {
		return outcome{}, err
	}
	defer os.RemoveAll(hist)
	setupS, sys, err := timeSetup(ctx, r, def.setupRepeats, hist)
	if err != nil {
		return outcome{}, err
	}
	defer sys.close()
	st := newTally(nil)
	stopProfile, err := startCPUProfile(o.cpuProfile)
	if err != nil {
		return outcome{}, err
	}
	passes := passesFor(def, o.seconds)
	elapsed, rates, err := measure(ctx, r, sys, st, passes)
	stopProfile()
	if err != nil {
		return outcome{}, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d passes in %.2fs: %d operations, %d cache-missing and %d cache-hitting requests\n",
		o.workload, passes, elapsed, st.ops, len(st.miss), len(st.hit))
	if err := writeAllocProfile(o.memProfile); err != nil {
		return outcome{}, err
	}
	// The checks run against direct evaluation while the idle system is
	// still up, so that heap_live_mb, read after them, sees the system's
	// end state without the tally's records.
	checkServed(ctx, st)
	r.verify(ctx, st)
	if len(st.miss) == 0 || len(st.hit) == 0 {
		return outcome{}, fmt.Errorf("measured phase recorded %d misses and %d hits; both are needed", len(st.miss), len(st.hit))
	}
	res := result{
		Correct:   st.failed == 0,
		Attempted: st.attempted,
		Failed:    st.failed,
		Metrics: map[string]metric{
			"setup_s":     {setupS, "s"},
			"ops_per_s":   {quantile(rates, 0.5), "1/s"},
			"miss_p50_ms": {quantile(st.miss, 0.5), "ms"},
			"miss_p90_ms": {quantile(st.miss, 0.9), "ms"},
			"hit_p50_ms":  {quantile(st.hit, 0.5), "ms"},
		},
	}
	st.served, st.miss, st.hit = nil, nil, nil
	res.Metrics["heap_live_mb"] = metric{liveHeapMB(), "MB"}
	sys.close()
	return outcome{
		record:   record{SetupRepeats: def.setupRepeats, Passes: passes, Result: res},
		failures: st.failures,
	}, nil
}

// checkServed re-evaluates every kept answer directly through
// sweep.EvaluateScenario — the dispatch every serving path funnels into —
// and fails the operations that returned a different estimate. Two
// goroutines share the work, as the service's two simulation threads do.
func checkServed(ctx context.Context, st *tally) {
	var wg sync.WaitGroup
	next := make(chan served)
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sv := range next {
				want, err := sweep.EvaluateScenario(ctx, scenarioOf(sv.req), core.SimParams{
					Runs: sv.req.Runs, Seed: sv.req.Seed, Epsilon: sv.req.Epsilon,
				})
				if err != nil {
					st.fail(sv.count, "direct evaluation of %+v: %v", sv.req, err)
					continue
				}
				if !sameEstimate(sv.rec, want) {
					st.fail(sv.count, "served %+v, direct evaluation gives yield %v successes %d runs %d",
						sv.rec, want.Yield, want.Successes, want.Runs)
				}
			}
		}()
	}
	for _, sv := range st.served {
		next <- sv
	}
	close(next)
	wg.Wait()
}

// scenarioOf converts a wire request to the canonical scenario the service
// evaluates. Requests use canonical design names, so no alias resolution
// is needed.
func scenarioOf(req service.ScenarioRequest) sweep.Scenario {
	return sweep.Scenario{
		Strategy:    sweep.Strategy(req.Strategy),
		Design:      req.Design,
		NPrimary:    req.NPrimary,
		P:           req.P,
		DefectModel: sweep.DefectModel(req.DefectModel),
		ClusterSize: req.ClusterSize,
	}.Normalize()
}

// requestOf is the /v2/evaluate request of a served record.
func requestOf(rec service.ScenarioRecord, runs int, seed int64, epsilon float64) service.ScenarioRequest {
	return service.ScenarioRequest{
		Strategy:    rec.Strategy,
		Design:      rec.Design,
		NPrimary:    rec.NPrimary,
		P:           rec.P,
		DefectModel: rec.DefectModel,
		ClusterSize: rec.ClusterSize,
		Runs:        runs,
		Seed:        seed,
		Epsilon:     epsilon,
	}
}

// sameEstimate reports whether a served record carries exactly the
// estimate of a direct evaluation.
func sameEstimate(got service.ScenarioRecord, want sweep.PointResult) bool {
	return got.Yield == want.Yield && got.Successes == want.Successes && got.Runs == want.Runs &&
		got.NTotal == want.NTotal && got.CILo == want.CILo && got.CIHi == want.CIHi &&
		got.EffectiveYield == want.EffectiveYield && got.NoRedundancy == want.NoRedundancy
}

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// liveHeapMB forces collections and returns the live heap in MB. The
// second collection empties the sync.Pool victim caches the first one
// filled, so pooled buffers do not count as live.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

func startCPUProfile(path string) (func(), error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

func writeAllocProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return fmt.Errorf("write alloc profile: %w", err)
	}
	return f.Close()
}

// scrape reads the exposition of every registry in the system — the body
// GET /metrics serves — and sums each sample name over its label sets.
// Histogram buckets are dropped; _sum and _count are kept.
func scrape(regs []*telemetry.Registry) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, r := range regs {
		rec := httptest.NewRecorder()
		r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		exp, err := telemetry.ParseExposition(rec.Body)
		if err != nil {
			return nil, fmt.Errorf("parse /metrics: %w", err)
		}
		for _, s := range exp.Samples {
			if len(s.Name) > 7 && s.Name[len(s.Name)-7:] == "_bucket" {
				continue
			}
			out[s.Name] += s.Value
		}
	}
	return out, nil
}

// span is one timed interval. Spans of one operation share a trace ID;
// parent links a span to the span that caused it.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Trace   string `json:"trace,omitempty"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	start time.Time
	next  int64
	spans []span
}

func newSpanLog() *spanLog {
	return &spanLog{start: time.Now(), spans: make([]span, 0, 1<<14)}
}

func (l *spanLog) newID() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	return l.next
}

func (l *spanLog) add(id, parent int64, trace, name string, start, end time.Time) {
	l.mu.Lock()
	l.spans = append(l.spans, span{ID: id, Parent: parent, Trace: trace, Name: name,
		StartNs: start.Sub(l.start).Nanoseconds(), EndNs: end.Sub(l.start).Nanoseconds()})
	l.mu.Unlock()
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// traceHandler records one server span per request, joined to the client
// span by the X-Request-ID the traced client sends.
func traceHandler(h http.Handler, spans *spanLog) http.Handler {
	if spans == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		spans.add(spans.newID(), 0, r.Header.Get("X-Request-ID"), "server "+r.Method+" "+r.URL.Path, start, time.Now())
	})
}
