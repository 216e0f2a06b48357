package dispatch

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"dmfb/client"
	"dmfb/internal/service"
)

// The lease long poll: an idle worker's lease request is held until work
// arrives, so these tests give their workers an hour-long retry backoff — a
// worker that had to sleep between lease attempts would never pick the work
// up in time.

// awaitShardsLeased waits up to within for the coordinator to have handed
// out n shard leases.
func awaitShardsLeased(t *testing.T, c *Coordinator, n uint64, within time.Duration) {
	t.Helper()
	start := time.Now()
	for c.Stats().ShardsLeased < n {
		if time.Since(start) > within {
			t.Fatalf("%d of %d shard leases after %v", c.Stats().ShardsLeased, n, within)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLeaseHoldPickup submits a job while the only worker waits in a held
// lease request: it must lease the first shard at once, and every later
// shard straight after submitting the one before.
func TestLeaseHoldPickup(t *testing.T) {
	req := distReq()
	golden := goldenLocal(t, req)
	cl := newCluster(t, Config{LeaseTTL: 10 * time.Second, ShardSize: 4}, 0)
	cl.addWorkerPoll(t, time.Hour)
	cl.waitLeaseHeld(t, 1)
	j := createDistributed(t, cl, req)
	awaitShardsLeased(t, cl.coord, 1, time.Second)
	if st := waitTerminal(t, j, 60*time.Second); st.State != service.JobCompleted {
		t.Fatalf("job: %+v", st)
	}
	assertGolden(t, j, golden)
}

// TestLeaseHoldExpiryWake re-pends a ghost's expired shard while a worker is
// held with nothing to do: the expiry must wake it to lease the shard, long
// before its hold would have run out.
func TestLeaseHoldExpiryWake(t *testing.T) {
	req := distReq()
	golden := goldenLocal(t, req)
	cl := newCluster(t, Config{LeaseTTL: 10 * time.Second, ShardSize: 16}, 0)
	ghost := cl.coord.register("ghost")
	j := createDistributed(t, cl, req)
	deadline := time.Now().Add(30 * time.Second)
	for cl.coord.nextLease(ghost.WorkerID) == nil {
		if time.Now().After(deadline) {
			t.Fatal("ghost never obtained the job's only shard")
		}
		time.Sleep(time.Millisecond)
	}
	cl.addWorkerPoll(t, time.Hour)
	cl.waitLeaseHeld(t, 1)
	if got := cl.coord.Stats().ShardsLeased; got != 1 {
		t.Fatalf("ShardsLeased = %d before the ghost's lease expired, want 1", got)
	}
	// The janitor's sweep, run as if the ghost had missed heartbeats for a
	// whole TTL.
	cl.coord.expireLeases(time.Now().Add(time.Minute))
	awaitShardsLeased(t, cl.coord, 2, time.Second)
	if st := waitTerminal(t, j, 60*time.Second); st.State != service.JobCompleted {
		t.Fatalf("job: %+v", st)
	}
	assertGolden(t, j, golden)
}

// leaseAsync sends one lease request from its own goroutine.
func leaseAsync(cli *client.Client, workerID string) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, err := cli.LeaseShard(context.Background(), workerID)
		done <- err
	}()
	return done
}

// awaitAnswer waits for a held lease request's answer: a 503, within 200ms
// of start.
func awaitAnswer(t *testing.T, done <-chan error, start time.Time) {
	t.Helper()
	select {
	case err := <-done:
		if el := time.Since(start); el > 200*time.Millisecond {
			t.Errorf("held lease answered %v after shutdown began, want <= 200ms", el)
		}
		if !isStatus(err, http.StatusServiceUnavailable) {
			t.Errorf("held lease at shutdown: %v, want 503", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("held lease still unanswered 5s after shutdown began")
	}
}

// TestLeaseHoldCoordinatorClose closes the coordinator under a held lease
// request: the request is answered 503 at once, as is every later lease
// request that finds no work.
func TestLeaseHoldCoordinatorClose(t *testing.T) {
	cl := newCluster(t, Config{LeaseTTL: 10 * time.Second}, 0)
	cli := client.New(cl.srv.URL)
	done := leaseAsync(cli, "worker-held")
	cl.waitLeaseHeld(t, 1)
	select {
	case err := <-done:
		t.Fatalf("idle lease answered before its hold ran out: %v", err)
	default:
	}
	start := time.Now()
	cl.coord.Close()
	awaitAnswer(t, done, start)
	start = time.Now()
	if _, err := cli.LeaseShard(context.Background(), "worker-held"); !isStatus(err, http.StatusServiceUnavailable) {
		t.Errorf("lease on a closed coordinator: %v, want 503", err)
	}
	if el := time.Since(start); el > 200*time.Millisecond {
		t.Errorf("lease on a closed coordinator took %v, want an answer at once", el)
	}
}

// TestLeaseHoldServerShutdown runs the coordinator inside service.Server,
// wired as cmd/dtmb-serve wires it, and shuts the server down under a held
// lease request: the request is answered as the drain starts, and the
// server finishes its graceful shutdown without waiting out the hold.
func TestLeaseHoldServerShutdown(t *testing.T) {
	coord := NewCoordinator(Config{LeaseTTL: 10 * time.Second})
	defer coord.Close()
	srv, err := service.NewServer(service.ServerConfig{
		Addr:        "127.0.0.1:0",
		Engine:      service.EngineConfig{DefaultRuns: 150, CacheSize: 16},
		Jobs:        service.JobStoreConfig{Runner: coord},
		ExtraRoutes: coord.Routes(),
		Logger:      slog.New(slog.DiscardHandler),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.RegisterOnShutdown(coord.Close)
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	ctx, shutdown := context.WithCancel(context.Background())
	defer shutdown()
	ran := make(chan error, 1)
	go func() { ran <- srv.Run(ctx, 10*time.Second) }()

	cli := client.New("http://" + srv.Addr())
	if err := cli.Ready(context.Background()); err != nil {
		t.Fatal(err)
	}
	done := leaseAsync(cli, "worker-held")
	// The held request's first look for work registers its worker.
	deadline := time.Now().Add(30 * time.Second)
	for coord.Stats().WorkersActive == 0 {
		if time.Now().After(deadline) {
			t.Fatal("lease request never reached the coordinator")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	start := time.Now()
	shutdown()
	awaitAnswer(t, done, start)
	select {
	case err := <-ran:
		if err != nil {
			t.Fatalf("server run: %v", err)
		}
		if el := time.Since(start); el > time.Second {
			t.Errorf("graceful shutdown took %v with a held lease, want < 1s", el)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server still shutting down 10s later")
	}
}

// TestLeaseHoldNoHotLoop runs an idle worker against an empty coordinator,
// open and then closed, and bounds the lease requests it sends: held
// requests answer every TTL/2 = 100ms and a closed coordinator's 503s are
// paced by the retry backoff (mean 100ms), so about ten a second, never a
// hot loop, and never more than one request open at a time.
func TestLeaseHoldNoHotLoop(t *testing.T) {
	cl := newCluster(t, Config{LeaseTTL: 200 * time.Millisecond}, 0)
	cl.addWorkerPoll(t, 100*time.Millisecond)
	cl.waitLeaseHeld(t, 1)
	const bound = 25
	for _, phase := range []string{"open", "closed"} {
		if phase == "closed" {
			cl.coord.Close()
		}
		before := cl.leases.calls.Load()
		time.Sleep(time.Second)
		if n := cl.leases.calls.Load() - before; n < 1 || n > bound {
			t.Errorf("%s coordinator: idle worker sent %d lease requests in 1s, want 1..%d", phase, n, bound)
		}
	}
	if m := cl.leases.maxOpen.Load(); m > 1 {
		t.Errorf("idle worker held %d lease requests open at once, want 1", m)
	}
}

// TestLeaseHoldPacesEarly204 points a worker at a coordinator that answers
// every lease request 204 at once, as one that does not hold requests
// would: the worker must pace those answers by its retry backoff instead of
// re-leasing in a hot loop.
func TestLeaseHoldPacesEarly204(t *testing.T) {
	var calls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("POST /v2/workers/register", func(w http.ResponseWriter, r *http.Request) {
		service.WriteJSON(w, http.StatusOK, service.WorkerRegisterResponse{WorkerID: "worker-1", LeaseTTLMillis: 10000})
	})
	mux.HandleFunc("POST /v2/workers/lease", func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusNoContent)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	err := RunWorker(ctx, WorkerConfig{Coordinator: srv.URL, Poll: 100 * time.Millisecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("worker: %v", err)
	}
	if n := calls.Load(); n < 1 || n > 25 {
		t.Errorf("worker sent %d lease requests in 1s to a coordinator that answers at once, want 1..25", n)
	}
}
