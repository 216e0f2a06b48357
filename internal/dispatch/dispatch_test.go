package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dmfb/client"
	"dmfb/internal/service"
)

// distReq is the shared 16-point heterogeneous grid: every strategy and both
// defect models, so the byte-identity assertions cover the closed-form,
// Monte-Carlo, and clustered evaluation paths at once.
func distReq() service.SweepRequest {
	return service.SweepRequest{
		Strategies:   []string{"none", "local", "shifted", "hex"},
		Designs:      []string{"DTMB(2,6)"},
		NPrimaries:   []int{40},
		Ps:           []float64{0.9, 0.95},
		SpareRows:    []int{1},
		DefectModels: []string{"independent", "clustered"},
		ClusterSize:  4,
		Runs:         150,
		Seed:         11,
	}
}

// slowDistReq is heavy enough (24 points × 15000 runs) that a worker can be
// killed mid-job with shards still outstanding.
func slowDistReq() service.SweepRequest {
	return service.SweepRequest{
		Strategies:   []string{"local", "hex"},
		Designs:      []string{"DTMB(2,6)"},
		NPrimaries:   []int{100},
		PMin:         0.90,
		PMax:         0.99,
		PPoints:      12,
		DefectModels: []string{"independent"},
		Runs:         15000,
		Seed:         3,
	}
}

func coordEngine() *service.Engine {
	return service.NewEngine(service.EngineConfig{DefaultRuns: 150, CacheSize: 256})
}

// goldenLocal evaluates req on a plain in-memory store — the single-process
// reference stream every distributed run must reproduce byte for byte.
func goldenLocal(t *testing.T, req service.SweepRequest) []byte {
	t.Helper()
	s := service.NewJobStore(coordEngine(), service.JobStoreConfig{})
	defer s.Close(context.Background())
	req.Distributed = false
	j, err := s.Create(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if st, err := j.Wait(ctx); err != nil || st.State != service.JobCompleted {
		t.Fatalf("golden job: %+v, %v", st, err)
	}
	return streamAll(t, j, 0)
}

func streamAll(t *testing.T, j *service.Job, cursor int) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	var buf bytes.Buffer
	if _, err := j.StreamResults(ctx, cursor, func(line []byte) error {
		_, err := buf.Write(line)
		return err
	}); err != nil {
		t.Fatalf("stream from cursor %d: %v", cursor, err)
	}
	return buf.Bytes()
}

// cluster is one in-process coordinator (engine + store + HTTP server) plus
// a set of worker loops talking to it over real HTTP through package client.
type cluster struct {
	engine *service.Engine
	store  *service.Store
	coord  *Coordinator
	srv    *httptest.Server
	leases *leaseCounter

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	nextID int
}

func newCluster(t *testing.T, cfg Config, nWorkers int) *cluster {
	t.Helper()
	e := coordEngine()
	cfg.Registry = e.Registry()
	coord := NewCoordinator(cfg)
	store := service.NewJobStore(e, service.JobStoreConfig{Runner: coord})
	leases := &leaseCounter{next: service.NewMux(e, store, coord.Routes()...)}
	srv := httptest.NewServer(leases)
	ctx, cancel := context.WithCancel(context.Background())
	c := &cluster{engine: e, store: store, coord: coord, srv: srv, leases: leases, ctx: ctx, cancel: cancel}
	t.Cleanup(func() {
		cancel()
		c.wg.Wait()
		closeCtx, done := context.WithTimeout(context.Background(), 30*time.Second)
		defer done()
		if err := store.Close(closeCtx); err != nil {
			t.Errorf("store close: %v", err)
		}
		coord.Close()
		srv.Close()
	})
	for i := 0; i < nWorkers; i++ {
		c.addWorker(t)
	}
	// Workers register from their own goroutines. Wait until all of them
	// have, so a job created next cannot finish before the last one starts
	// and every worker counts in the coordinator's Stats.
	deadline := time.Now().Add(30 * time.Second)
	for coord.Stats().WorkersActive < nWorkers {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d workers registered", coord.Stats().WorkersActive, nWorkers)
		}
		time.Sleep(time.Millisecond)
	}
	return c
}

// addWorker starts one worker loop and returns a cancel that kills just this
// worker — the in-process analog of kill -9 on a worker mid-shard (its
// heartbeats stop; the lease janitor redispatches whatever it held).
func (c *cluster) addWorker(t *testing.T) context.CancelFunc {
	t.Helper()
	return c.addWorkerPoll(t, 20*time.Millisecond)
}

// addWorkerPoll is addWorker with the given retry backoff base.
func (c *cluster) addWorkerPoll(t *testing.T, poll time.Duration) context.CancelFunc {
	t.Helper()
	c.nextID++
	name := fmt.Sprintf("w%d", c.nextID)
	wctx, wcancel := context.WithCancel(c.ctx)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		err := RunWorker(wctx, WorkerConfig{
			Coordinator: c.srv.URL,
			Name:        name,
			Engine:      service.EngineConfig{CacheSize: 64},
			Poll:        poll,
		})
		if err != nil && wctx.Err() == nil {
			t.Errorf("worker %s: %v", name, err)
		}
	}()
	return wcancel
}

// leaseCounter wraps a coordinator's mux and counts the lease requests it
// receives, and the most it ever held open at once.
type leaseCounter struct {
	next                 http.Handler
	calls, open, maxOpen atomic.Int64
}

func (lc *leaseCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v2/workers/lease" {
		lc.calls.Add(1)
		n := lc.open.Add(1)
		defer lc.open.Add(-1)
		for {
			m := lc.maxOpen.Load()
			if n <= m || lc.maxOpen.CompareAndSwap(m, n) {
				break
			}
		}
	}
	lc.next.ServeHTTP(w, r)
}

// waitLeaseHeld waits until the cluster has received n lease requests and
// then 20ms more, so that the last is being held: a coordinator that
// answered it at once would have sent its worker to sleep by then.
func (c *cluster) waitLeaseHeld(t *testing.T, n int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for c.leases.calls.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d lease requests arrived", c.leases.calls.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
}

// assertGolden checks full-stream byte identity plus the cursor contract:
// the stream from any cursor is the exact suffix of the golden stream.
func assertGolden(t *testing.T, j *service.Job, golden []byte) {
	t.Helper()
	if got := streamAll(t, j, 0); !bytes.Equal(got, golden) {
		t.Fatalf("merged stream diverges from single-process golden:\n got %d bytes\nwant %d bytes", len(got), len(golden))
	}
	lines := bytes.SplitAfter(golden, []byte("\n"))
	if len(lines) > 0 && len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	for _, cursor := range []int{1, len(lines) / 2, len(lines)} {
		want := bytes.Join(lines[cursor:], nil)
		if got := streamAll(t, j, cursor); !bytes.Equal(got, want) {
			t.Fatalf("cursor %d: stream diverges from golden suffix", cursor)
		}
	}
}

func TestDistributedByteIdentity(t *testing.T) {
	req := distReq()
	golden := goldenLocal(t, req)
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			// ShardSize 3 forces uneven shards (16 = 5×3 + 1) across n workers.
			cl := newCluster(t, Config{LeaseTTL: 2 * time.Second, ShardSize: 3}, n)
			req := req
			req.Distributed = true
			j, err := cl.store.Create(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()
			st, err := j.Wait(ctx)
			if err != nil || st.State != service.JobCompleted {
				t.Fatalf("distributed job: %+v, %v", st, err)
			}
			if !st.Distributed {
				t.Error("status does not report distributed")
			}
			assertGolden(t, j, golden)
			stats := cl.coord.Stats()
			if stats.ShardsCompleted < 6 {
				t.Errorf("ShardsCompleted = %d, want >= 6", stats.ShardsCompleted)
			}
			if stats.WorkersActive < n {
				t.Errorf("WorkersActive = %d, want >= %d", stats.WorkersActive, n)
			}
		})
	}
}

func TestWorkerKilledMidJobRedispatches(t *testing.T) {
	req := slowDistReq()
	golden := goldenLocal(t, req)
	// The TTL balances two pressures: short enough that the dead worker's
	// lease is reclaimed promptly, long enough that a live (race-detector
	// slowed) worker's heartbeats at TTL/3 reliably keep its lease alive.
	cl := newCluster(t, Config{LeaseTTL: time.Second, ShardSize: 2}, 0)
	killFirst := cl.addWorker(t)
	req.Distributed = true
	j, err := cl.store.Create(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// Kill the only worker once it holds a lease: its heartbeats stop, the
	// janitor expires the lease, and a replacement finishes the job.
	deadline := time.Now().Add(30 * time.Second)
	for cl.coord.Stats().ShardsLeased == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no shard ever leased")
		}
		time.Sleep(2 * time.Millisecond)
	}
	killFirst()
	cl.addWorker(t)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	st, err := j.Wait(ctx)
	if err != nil || st.State != service.JobCompleted {
		t.Fatalf("job after worker kill: %+v, %v", st, err)
	}
	assertGolden(t, j, golden)
}

func TestGhostWorkerLeaseExpiresAndRedispatches(t *testing.T) {
	req := distReq()
	golden := goldenLocal(t, req)
	cl := newCluster(t, Config{LeaseTTL: 300 * time.Millisecond, ShardSize: 4}, 0)
	// A ghost worker grabs the first shard and never heartbeats or submits —
	// the pure lease-expiry path, deterministic because no real worker races
	// for the first lease.
	ghost := cl.coord.register("ghost")
	req.Distributed = true
	j, err := cl.store.Create(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	var held *service.ShardLease
	deadline := time.Now().Add(30 * time.Second)
	for held == nil {
		if time.Now().After(deadline) {
			t.Fatal("ghost never obtained a lease")
		}
		held = cl.coord.nextLease(ghost.WorkerID)
		if held == nil {
			time.Sleep(2 * time.Millisecond)
		}
	}
	cl.addWorker(t)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	st, err := j.Wait(ctx)
	if err != nil || st.State != service.JobCompleted {
		t.Fatalf("job after ghost lease: %+v, %v", st, err)
	}
	if got := cl.coord.Stats().ShardsExpired; got < 1 {
		t.Errorf("ShardsExpired = %d, want >= 1", got)
	}
	assertGolden(t, j, golden)
}

func TestSubmitValidationAndIdempotency(t *testing.T) {
	e := coordEngine()
	coord := NewCoordinator(Config{LeaseTTL: time.Minute, ShardSize: 4, Registry: e.Registry()})
	defer coord.Close()
	store := service.NewJobStore(e, service.JobStoreConfig{Runner: coord})
	defer store.Close(context.Background())
	req := distReq()
	req.Distributed = true
	j, err := store.Create(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	reg := coord.register("w")
	var held *service.ShardLease
	deadline := time.Now().Add(30 * time.Second)
	for held == nil {
		if time.Now().After(deadline) {
			t.Fatal("no lease available")
		}
		held = coord.nextLease(reg.WorkerID)
		if held == nil {
			time.Sleep(2 * time.Millisecond)
		}
	}

	records := shardRecords(t, e, held)
	sub := service.ShardResultRequest{
		WorkerID: reg.WorkerID, LeaseID: held.LeaseID,
		JobID: held.JobID, Shard: held.Shard,
	}

	// Wrong record count is rejected.
	sub.Records = records[:len(records)-1]
	if err := coord.submit(sub); err == nil || !strings.Contains(err.Error(), "records") {
		t.Fatalf("short submission: %v", err)
	}
	// Wrong indices are rejected.
	shifted := make([]service.SweepRecord, len(records))
	copy(shifted, records)
	shifted[0].Index++
	shifted[1].Index--
	sub.Records = shifted
	if err := coord.submit(sub); err == nil || !strings.Contains(err.Error(), "index") {
		t.Fatalf("misindexed submission: %v", err)
	}
	// The real submission is accepted; a duplicate loses the first-wins race
	// and is told so with errGone (410) — its records are discarded, never
	// merged a second time.
	sub.Records = records
	if err := coord.submit(sub); err != nil {
		t.Fatalf("valid submission: %v", err)
	}
	if err := coord.submit(sub); !errors.Is(err, errGone) {
		t.Fatalf("duplicate submission: err = %v, want errGone", err)
	}
	if got := coord.Stats().ShardsCompleted; got != 1 {
		t.Errorf("ShardsCompleted = %d, want 1", got)
	}
	// The consumed lease is gone.
	if err := coord.heartbeat(reg.WorkerID, held.LeaseID); !errors.Is(err, errGone) {
		t.Fatalf("heartbeat on consumed lease: %v", err)
	}
	// Cancelling the job releases it: further submissions answer gone.
	if st := j.Cancel(); st.State != service.JobCancelled {
		t.Fatalf("cancel: %+v", st)
	}
	if err := coord.submit(sub); !errors.Is(err, errGone) {
		t.Fatalf("submit after job release: %v", err)
	}
}

func TestWorkerHTTPEndpoints(t *testing.T) {
	// A short TTL keeps the idle lease's hold (TTL/2) at 100ms.
	cl := newCluster(t, Config{LeaseTTL: 200 * time.Millisecond}, 0)
	cli := client.New(cl.srv.URL)
	ctx := context.Background()

	if err := cli.Ready(ctx); err != nil {
		t.Fatalf("readyz: %v", err)
	}
	reg, err := cli.RegisterWorker(ctx, client.WorkerRegisterRequest{Name: "itest"})
	if err != nil {
		t.Fatal(err)
	}
	if reg.WorkerID == "" || reg.LeaseTTLMillis <= 0 {
		t.Fatalf("register response: %+v", reg)
	}
	// No jobs: once the hold passes the lease endpoint answers 204 → nil
	// lease, nil error.
	lease, err := cli.LeaseShard(ctx, reg.WorkerID)
	if err != nil || lease != nil {
		t.Fatalf("idle lease: %+v, %v", lease, err)
	}
	// A lease request without a worker ID is malformed.
	if _, err := cli.LeaseShard(ctx, ""); !isStatus(err, http.StatusBadRequest) {
		t.Fatalf("empty worker_id: %v", err)
	}
	// Heartbeats and submissions for unknown leases/jobs answer 410 so
	// workers abandon the shard instead of retrying.
	if err := cli.HeartbeatLease(ctx, reg.WorkerID, "lease-404"); !isStatus(err, http.StatusGone) {
		t.Fatalf("unknown lease heartbeat: %v", err)
	}
	err = cli.SubmitShard(ctx, client.ShardResultRequest{
		WorkerID: reg.WorkerID, LeaseID: "lease-404", JobID: "job-404",
	})
	if !isStatus(err, http.StatusGone) {
		t.Fatalf("unknown job submission: %v", err)
	}
}

// TestWorkerEndpointsRejectOversizedBody pins the worker endpoints to the
// service's body limit: a valid control message followed by more trailing
// whitespace than the limit allows is answered 413 with the JSON error
// envelope, as every service endpoint answers it, not 400.
func TestWorkerEndpointsRejectOversizedBody(t *testing.T) {
	cl := newCluster(t, Config{}, 0)
	padding := strings.Repeat(" ", 2<<20)
	for ep, msg := range map[string]string{
		"/v2/workers/heartbeat": `{"worker_id":"w-1","lease_id":"lease-1"}`,
		"/v2/workers/lease":     `{"worker_id":"w-1"}`,
	} {
		resp, err := http.Post(cl.srv.URL+ep, "application/json", strings.NewReader(msg+padding))
		if err != nil {
			t.Fatal(err)
		}
		var env struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d (%q), want 413", ep, resp.StatusCode, env.Error)
		}
		if err != nil || env.Error == "" {
			t.Errorf("%s: error envelope %+v, decode err %v", ep, env, err)
		}
	}
}

// TestWorkerReplansReusedJobID restarts an in-memory coordinator under a
// running worker. The new coordinator numbers jobs from job-1 again, so the
// worker is leased a job ID it has served before with a different request;
// it must evaluate the new request, not the plan it kept for the old job.
func TestWorkerReplansReusedJobID(t *testing.T) {
	var current atomic.Pointer[http.ServeMux]
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		current.Load().ServeHTTP(w, r)
	}))
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel()

	// run starts a fresh in-memory coordinator behind srv and evaluates req
	// on it as a distributed job.
	run := func(req service.SweepRequest) []byte {
		t.Helper()
		e := coordEngine()
		coord := NewCoordinator(Config{LeaseTTL: 2 * time.Second, ShardSize: 4, Registry: e.Registry()})
		defer coord.Close()
		store := service.NewJobStore(e, service.JobStoreConfig{Runner: coord})
		defer store.Close(context.Background())
		current.Store(service.NewMux(e, store, coord.Routes()...))
		req.Distributed = true
		j, err := store.Create(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if j.ID() != "job-1" {
			t.Fatalf("fresh coordinator numbered its first job %q, want job-1", j.ID())
		}
		if st := waitTerminal(t, j, 120*time.Second); st.State != service.JobCompleted {
			t.Fatalf("job: %+v", st)
		}
		return streamAll(t, j, 0)
	}

	first, second := distReq(), distReq()
	second.Seed, second.Runs = 12, 300
	want := goldenLocal(t, second)
	current.Store(http.NewServeMux())
	wg.Add(1)
	go func() {
		defer wg.Done()
		err := RunWorker(ctx, WorkerConfig{
			Coordinator: srv.URL,
			Engine:      service.EngineConfig{CacheSize: 64},
			Poll:        20 * time.Millisecond,
		})
		if err != nil && ctx.Err() == nil {
			t.Errorf("worker: %v", err)
		}
	}()
	run(first)
	if got := run(second); !bytes.Equal(got, want) {
		t.Fatalf("job-1 after a coordinator restart diverges from its own request's golden:\n got %.200s\nwant %.200s", got, want)
	}
}

func isStatus(err error, code int) bool {
	var apiErr *client.APIError
	return errors.As(err, &apiErr) && apiErr.StatusCode == code
}
