package dispatch

// Chaos suite: randomized but seeded fault schedules against a real
// coordinator + in-process worker fleet. The invariant under every schedule
// is the one the whole system is built around: a job that survives chaos
// streams bytes identical to a fault-free single-process run at every
// cursor, and a job that does not survive fails with a typed, observable
// error — never a hang, never silently wrong bytes. These tests run under
// -race in CI's chaos job (go test -race -run Chaos -count=2).

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"dmfb/client"
	"dmfb/internal/faultinject"
	"dmfb/internal/service"
)

// addChaosWorker starts a worker whose loop and coordinator client run under
// a chaos schedule: winj arms the worker-loop seams (crash, slow, duplicate
// and corrupt submits), tinj arms the HTTP transport between worker and
// coordinator. Either may be nil.
func (c *cluster) addChaosWorker(t *testing.T, winj, tinj *faultinject.Injector) context.CancelFunc {
	t.Helper()
	c.nextID++
	name := fmt.Sprintf("cw%d", c.nextID)
	cfg := WorkerConfig{
		Coordinator: c.srv.URL,
		Name:        name,
		Engine:      service.EngineConfig{CacheSize: 64},
		Poll:        20 * time.Millisecond,
		Inject:      winj,
	}
	if tinj != nil {
		cfg.ClientOptions = []client.Option{client.WithHTTPClient(&http.Client{
			Transport: &faultinject.Transport{Inject: tinj},
		})}
	}
	wctx, wcancel := context.WithCancel(c.ctx)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		if err := RunWorker(wctx, cfg); err != nil && wctx.Err() == nil {
			t.Errorf("chaos worker %s: %v", name, err)
		}
	}()
	return wcancel
}

// newDurableCluster is newCluster on a durable file store, for chaos runs
// that mix disk persistence with network and worker faults.
func newDurableCluster(t *testing.T, cfg Config, dir string, storeInj *faultinject.Injector) *cluster {
	t.Helper()
	e := coordEngine()
	cfg.Registry = e.Registry()
	coord := NewCoordinator(cfg)
	store, err := service.NewFileJobStore(e, service.JobStoreConfig{Runner: coord, Inject: storeInj}, dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.NewMux(e, store, coord.Routes()...))
	ctx, cancel := context.WithCancel(context.Background())
	c := &cluster{engine: e, store: store, coord: coord, srv: srv, ctx: ctx, cancel: cancel}
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
	deadline := time.Now().Add(10 * time.Second)
	for !store.Ready() {
		if time.Now().After(deadline) {
			t.Fatal("durable store never became ready")
		}
		time.Sleep(2 * time.Millisecond)
	}
	return c
}

func createDistributed(t *testing.T, cl *cluster, req service.SweepRequest) *service.Job {
	t.Helper()
	req.Distributed = true
	j, err := cl.store.Create(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func waitTerminal(t *testing.T, j *service.Job, timeout time.Duration) service.JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	st, err := j.Wait(ctx)
	if err != nil {
		t.Fatalf("job never reached a terminal state: %v", err)
	}
	return st
}

// TestChaosTransportFaults runs a fleet whose every coordinator exchange
// passes through a faulty transport — resets, injected latency, synthetic
// 503s, truncated response bodies — and requires the finished job to match
// the fault-free golden byte for byte. Then it re-reads the stream through a
// chaotic client transport and requires the exact same record sequence.
func TestChaosTransportFaults(t *testing.T) {
	req := distReq()
	golden := goldenLocal(t, req)
	cl := newCluster(t, Config{LeaseTTL: 2 * time.Second, ShardSize: 3}, 0)
	for i := uint64(0); i < 2; i++ {
		tinj := faultinject.New(100+i).
			Arm(faultinject.TransportReset, faultinject.Rule{Prob: 0.1}).
			Arm(faultinject.Transport5xx, faultinject.Rule{Prob: 0.1}).
			Arm(faultinject.TransportTruncate, faultinject.Rule{Prob: 0.05}).
			Arm(faultinject.TransportLatency, faultinject.Rule{Prob: 0.2, Delay: 5 * time.Millisecond})
		cl.addChaosWorker(t, nil, tinj)
	}
	j := createDistributed(t, cl, req)
	st := waitTerminal(t, j, 120*time.Second)
	if st.State != service.JobCompleted {
		t.Fatalf("job under transport chaos: %+v", st)
	}
	assertGolden(t, j, golden)

	// Client-side: a clean stream is the reference; a stream whose first
	// response is truncated mid-body and whose first resumption is reset
	// must reconnect from its cursor and deliver the identical sequence.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var want []client.SweepRecord
	clean := client.New(cl.srv.URL)
	if _, err := clean.StreamJobResults(ctx, j.ID(), 0, func(r client.SweepRecord) error {
		want = append(want, r)
		return nil
	}); err != nil {
		t.Fatalf("clean stream: %v", err)
	}
	if len(want) != st.TotalPoints {
		t.Fatalf("clean stream has %d records, want %d", len(want), st.TotalPoints)
	}
	sinj := faultinject.New(7).
		Arm(faultinject.TransportTruncate, faultinject.Rule{Hits: []int{1}}).
		Arm(faultinject.TransportReset, faultinject.Rule{Hits: []int{2}})
	chaotic := client.New(cl.srv.URL,
		client.WithHTTPClient(&http.Client{Transport: &faultinject.Transport{Inject: sinj}}),
		client.WithPolicy(client.Policy{MaxAttempts: 6, BaseBackoff: 10 * time.Millisecond, MaxBackoff: 50 * time.Millisecond}))
	var got []client.SweepRecord
	if _, err := chaotic.StreamJobResults(ctx, j.ID(), 0, func(r client.SweepRecord) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatalf("chaos stream: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("chaos stream diverges from clean stream: got %d records, want %d", len(got), len(want))
	}
}

// TestChaosWorkerCrashes kills workers mid-shard (deterministically on the
// first lease, probabilistically after) and requires completion, byte
// identity, and a visible retry count.
func TestChaosWorkerCrashes(t *testing.T) {
	req := distReq()
	golden := goldenLocal(t, req)
	cl := newCluster(t, Config{LeaseTTL: time.Second, ShardSize: 3, MaxShardDispatches: 20}, 0)
	w1 := faultinject.New(1).Arm(faultinject.WorkerCrash, faultinject.Rule{Hits: []int{1}, Prob: 0.2, Limit: 3})
	w2 := faultinject.New(2).Arm(faultinject.WorkerCrash, faultinject.Rule{Prob: 0.2, Limit: 3})
	cl.addChaosWorker(t, w1, nil)
	cl.addChaosWorker(t, w2, nil)
	j := createDistributed(t, cl, req)
	st := waitTerminal(t, j, 120*time.Second)
	if st.State != service.JobCompleted {
		t.Fatalf("job under crash chaos: %+v", st)
	}
	assertGolden(t, j, golden)
	stats := cl.coord.Stats()
	if stats.Retries < 1 {
		t.Errorf("Retries = %d, want >= 1 (w1 crashed its first shard)", stats.Retries)
	}
	if stats.ShardsQuarantined != 0 {
		t.Errorf("ShardsQuarantined = %d, want 0 under a survivable schedule", stats.ShardsQuarantined)
	}
}

// TestChaosQuarantinePoisonShard arms a worker that crashes on every lease:
// the shard burns its dispatch budget, the coordinator quarantines it, and
// the job fails promptly with the typed poison-shard diagnosis instead of
// redispatching forever.
func TestChaosQuarantinePoisonShard(t *testing.T) {
	req := distReq()
	cl := newCluster(t, Config{LeaseTTL: 200 * time.Millisecond, ShardSize: 8, MaxShardDispatches: 2}, 0)
	winj := faultinject.New(3).Arm(faultinject.WorkerCrash, faultinject.Rule{Prob: 1})
	cl.addChaosWorker(t, winj, nil)
	j := createDistributed(t, cl, req)
	st := waitTerminal(t, j, 60*time.Second)
	if st.State != service.JobFailed {
		t.Fatalf("state = %q, want %q", st.State, service.JobFailed)
	}
	if st.Reason != service.ReasonPoisonShard {
		t.Errorf("reason = %q, want %q", st.Reason, service.ReasonPoisonShard)
	}
	if !strings.Contains(st.Error, "quarantined") {
		t.Errorf("error %q does not name the quarantine", st.Error)
	}
	if got := cl.coord.Stats().ShardsQuarantined; got < 1 {
		t.Errorf("ShardsQuarantined = %d, want >= 1", got)
	}
}

// TestChaosDuplicateAndCorruptSubmit exercises the two submission faults:
// a worker that always double-submits (the coordinator must accept exactly
// one copy per shard) and a worker whose first submission is structurally
// corrupted (the coordinator must reject it outright and redispatch).
func TestChaosDuplicateAndCorruptSubmit(t *testing.T) {
	req := distReq()
	golden := goldenLocal(t, req)

	t.Run("duplicate", func(t *testing.T) {
		cl := newCluster(t, Config{LeaseTTL: 2 * time.Second, ShardSize: 3}, 0)
		winj := faultinject.New(4).Arm(faultinject.WorkerDuplicateSubmit, faultinject.Rule{Prob: 1})
		cl.addChaosWorker(t, winj, nil)
		j := createDistributed(t, cl, req)
		st := waitTerminal(t, j, 120*time.Second)
		if st.State != service.JobCompleted {
			t.Fatalf("job under duplicate-submit chaos: %+v", st)
		}
		assertGolden(t, j, golden)
		// 16 points / shard size 3 = 6 shards, each submitted twice;
		// first-wins means exactly one acceptance per shard.
		if got := cl.coord.Stats().ShardsCompleted; got != 6 {
			t.Errorf("ShardsCompleted = %d, want 6 (duplicates must not double-count)", got)
		}
		// The job can reach terminal before the last shard's duplicate is
		// replayed, so only a lower bound on fires is race-free.
		if _, fires := winj.Counts(faultinject.WorkerDuplicateSubmit); fires < 1 {
			t.Errorf("duplicate submissions fired %d times, want >= 1", fires)
		}
	})

	t.Run("corrupt", func(t *testing.T) {
		cl := newCluster(t, Config{LeaseTTL: 500 * time.Millisecond, ShardSize: 16}, 0)
		winj := faultinject.New(5).Arm(faultinject.WorkerCorruptSubmit, faultinject.Rule{Hits: []int{1}})
		cl.addChaosWorker(t, winj, nil)
		j := createDistributed(t, cl, req)
		st := waitTerminal(t, j, 120*time.Second)
		if st.State != service.JobCompleted {
			t.Fatalf("job under corrupt-submit chaos: %+v", st)
		}
		assertGolden(t, j, golden)
		if got := cl.coord.Stats().Retries; got < 1 {
			t.Errorf("Retries = %d, want >= 1 (corrupted shard must be redispatched)", got)
		}
	})
}

// TestChaosLeaseExpiryDiscardsLoser drives the lease-TTL edge directly: a
// worker evaluates a shard, its lease expires just before submission, a twin
// re-leases and submits first. The loser's late submission must answer
// errGone (410 on the wire) with its records fully discarded, and the final
// stream must still match the golden bytes exactly.
func TestChaosLeaseExpiryDiscardsLoser(t *testing.T) {
	req := distReq()
	golden := goldenLocal(t, req)
	e := coordEngine()
	// A long TTL keeps the janitor out of the way: expiry is forced
	// explicitly at the exact moment under test.
	coord := NewCoordinator(Config{LeaseTTL: time.Minute, ShardSize: 4, Registry: e.Registry()})
	defer coord.Close()
	store := service.NewJobStore(e, service.JobStoreConfig{Runner: coord})
	defer store.Close(context.Background())
	req.Distributed = true
	j, err := store.Create(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	loser := coord.register("loser")
	winner := coord.register("winner")
	l1 := pollLease(t, coord, loser.WorkerID)
	loserRecords := shardRecords(t, e, l1)

	// The loser's lease hits its TTL before the submission lands.
	coord.expireLeases(time.Now().Add(2 * time.Minute))
	if got := coord.Stats().ShardsExpired; got < 1 {
		t.Fatalf("ShardsExpired = %d after forced expiry, want >= 1", got)
	}

	// The twin re-leases the same shard under a fresh lease ID and wins.
	l2 := pollLease(t, coord, winner.WorkerID)
	if l2.Shard != l1.Shard || l2.LeaseID == l1.LeaseID {
		t.Fatalf("redispatch gave shard %d lease %s, want shard %d under a fresh lease", l2.Shard, l2.LeaseID, l1.Shard)
	}
	if err := coord.submit(service.ShardResultRequest{
		WorkerID: winner.WorkerID, LeaseID: l2.LeaseID,
		JobID: l2.JobID, Shard: l2.Shard, Records: shardRecords(t, e, l2),
	}); err != nil {
		t.Fatalf("winner submission: %v", err)
	}
	err = coord.submit(service.ShardResultRequest{
		WorkerID: loser.WorkerID, LeaseID: l1.LeaseID,
		JobID: l1.JobID, Shard: l1.Shard, Records: loserRecords,
	})
	if !errors.Is(err, errGone) {
		t.Fatalf("loser submission: err = %v, want errGone", err)
	}

	// Drain the remaining shards through the winner.
	for {
		l := coord.nextLease(winner.WorkerID)
		if l == nil {
			break
		}
		if err := coord.submit(service.ShardResultRequest{
			WorkerID: winner.WorkerID, LeaseID: l.LeaseID,
			JobID: l.JobID, Shard: l.Shard, Records: shardRecords(t, e, l),
		}); err != nil {
			t.Fatalf("drain shard %d: %v", l.Shard, err)
		}
	}
	st := waitTerminal(t, j, 120*time.Second)
	if st.State != service.JobCompleted {
		t.Fatalf("job after lease-expiry race: %+v", st)
	}
	assertGolden(t, j, golden)
	// 16 points / shard size 4 = 4 shards; the loser's copy was discarded,
	// not merged as a fifth acceptance.
	if got := coord.Stats().ShardsCompleted; got != 4 {
		t.Errorf("ShardsCompleted = %d, want 4", got)
	}
}

// TestChaosMixedFaults combines worker crashes, stalls, duplicate submits,
// and transport faults over several seeds, on a durable file-backed store —
// the closest in-process analog of the full production deployment — and
// requires byte identity for every surviving run.
func TestChaosMixedFaults(t *testing.T) {
	req := distReq()
	golden := goldenLocal(t, req)
	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cl := newDurableCluster(t, Config{LeaseTTL: time.Second, ShardSize: 3, MaxShardDispatches: 20}, t.TempDir(), nil)
			for i := uint64(0); i < 2; i++ {
				winj := faultinject.New(seed*10+i).
					Arm(faultinject.WorkerCrash, faultinject.Rule{Prob: 0.2, Limit: 2}).
					Arm(faultinject.WorkerSlow, faultinject.Rule{Prob: 0.3, Delay: 20 * time.Millisecond}).
					Arm(faultinject.WorkerDuplicateSubmit, faultinject.Rule{Prob: 0.3})
				tinj := faultinject.New(seed*100+i).
					Arm(faultinject.TransportReset, faultinject.Rule{Prob: 0.05}).
					Arm(faultinject.Transport5xx, faultinject.Rule{Prob: 0.05})
				cl.addChaosWorker(t, winj, tinj)
			}
			j := createDistributed(t, cl, req)
			st := waitTerminal(t, j, 120*time.Second)
			if st.State != service.JobCompleted {
				t.Fatalf("job under mixed chaos: %+v", st)
			}
			assertGolden(t, j, golden)
		})
	}
}

func pollLease(t *testing.T, coord *Coordinator, workerID string) *service.ShardLease {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if l := coord.nextLease(workerID); l != nil {
			return l
		}
		if time.Now().After(deadline) {
			t.Fatal("no lease available")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// shardRecords evaluates one lease exactly as a worker would.
func shardRecords(t *testing.T, e *service.Engine, l *service.ShardLease) []service.SweepRecord {
	t.Helper()
	plan, err := e.PlanSweep(l.Request)
	if err != nil {
		t.Fatal(err)
	}
	var records []service.SweepRecord
	if err := e.RunSweepRange(context.Background(), plan, l.Start, l.End, func(run []service.SweepRecord) error {
		for _, rec := range run {
			rec.Cached = false
			records = append(records, rec)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return records
}
