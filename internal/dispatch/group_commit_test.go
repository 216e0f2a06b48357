package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dmfb/internal/faultinject"
	"dmfb/internal/service"
)

// appendCounter arms the store's append seam with a rule that never fires,
// so the injector's hit count is the number of result-log appends.
func appendCounter() *faultinject.Injector {
	return faultinject.New(1).Arm(faultinject.StoreAppendWrite, faultinject.Rule{})
}

func appends(in *faultinject.Injector) uint64 {
	hits, _ := in.Counts(faultinject.StoreAppendWrite)
	return hits
}

// openStore opens a durable store on dir and waits for its replay.
func openStore(t *testing.T, e *service.Engine, cfg service.JobStoreConfig, dir string) *service.Store {
	t.Helper()
	s, err := service.NewFileJobStore(e, cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close(context.Background()) })
	deadline := time.Now().Add(10 * time.Second)
	for !s.Ready() {
		if time.Now().After(deadline) {
			t.Fatal("durable store never became ready")
		}
		time.Sleep(2 * time.Millisecond)
	}
	return s
}

// logSeal reads a job's on-disk result log and the record count and CRC
// its terminal manifest sealed.
func logSeal(t *testing.T, dir, id string) (log []byte, records int, crc string) {
	t.Helper()
	log, err := os.ReadFile(filepath.Join(dir, id, "results.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, id, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		ResultRecords int    `json:"result_records"`
		ResultsCRC    string `json:"results_crc"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return log, m.ResultRecords, m.ResultsCRC
}

// TestGroupCommitOutOfOrderShards finishes a distributed job's shards out of
// order — shard 1 before shard 0 — and requires the coordinator's merge to
// commit the drained run [shard 0, shard 1] with one durable append, then
// the last shard with one more. The log bytes, the manifest seal and the
// re-read stream must equal those of the same job run locally, which
// commits runs of its own, as its points finish.
func TestGroupCommitOutOfOrderShards(t *testing.T) {
	req := distReq() // 16 points: shards [0,6), [6,12), [12,16)

	localDir, localInj := t.TempDir(), appendCounter()
	local := openStore(t, coordEngine(), service.JobStoreConfig{Inject: localInj}, localDir)
	lj, err := local.Create(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, lj, 120*time.Second); st.State != service.JobCompleted {
		t.Fatalf("local job: %+v", st)
	}
	if got := appends(localInj); got < 1 || got > 16 {
		t.Errorf("local job made %d appends for 16 records, want one per run", got)
	}
	golden := streamAll(t, lj, 0)

	e := coordEngine()
	coord := NewCoordinator(Config{LeaseTTL: time.Minute, ShardSize: 6, Registry: e.Registry()})
	defer coord.Close()
	distDir, distInj := t.TempDir(), appendCounter()
	store := openStore(t, e, service.JobStoreConfig{Runner: coord, Inject: distInj}, distDir)
	dreq := req
	dreq.Distributed = true
	j, err := store.Create(context.Background(), dreq)
	if err != nil {
		t.Fatal(err)
	}
	w := coord.register("w")
	var leases [3]*service.ShardLease
	for i := range leases {
		leases[i] = pollLease(t, coord, w.WorkerID)
		if leases[i].Shard != i {
			t.Fatalf("lease %d is for shard %d", i, leases[i].Shard)
		}
	}
	submit := func(l *service.ShardLease) {
		t.Helper()
		if err := coord.submit(service.ShardResultRequest{
			WorkerID: w.WorkerID, LeaseID: l.LeaseID, JobID: l.JobID,
			Shard: l.Shard, Records: shardRecords(t, e, l),
		}); err != nil {
			t.Fatalf("submit shard %d: %v", l.Shard, err)
		}
	}
	waitDone := func(n int) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for j.Status().PointsDone < n {
			if time.Now().After(deadline) {
				t.Fatalf("job stuck at %d points, want %d", j.Status().PointsDone, n)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Shard 1 alone cannot merge: nothing may be committed past the cursor.
	submit(leases[1])
	time.Sleep(20 * time.Millisecond)
	if done, n := j.Status().PointsDone, appends(distInj); done != 0 || n != 0 {
		t.Fatalf("after shard 1 alone: %d points, %d appends; want 0 and 0", done, n)
	}
	submit(leases[0])
	waitDone(12)
	if n := appends(distInj); n != 1 {
		t.Errorf("shards 0 and 1 drained in one wake took %d appends, want 1", n)
	}
	submit(leases[2])
	if st := waitTerminal(t, j, 60*time.Second); st.State != service.JobCompleted {
		t.Fatalf("distributed job: %+v", st)
	}
	if n := appends(distInj); n != 2 {
		t.Errorf("distributed job took %d appends, want 2", n)
	}

	if got := streamAll(t, j, 0); !bytes.Equal(got, golden) {
		t.Fatalf("group-committed stream differs from the local job's (%d vs %d bytes)", len(got), len(golden))
	}
	// Closing joins each job's goroutine, which writes the terminal
	// manifest after the job reports done.
	for _, s := range []*service.Store{local, store} {
		if err := s.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	wantLog, wantRecords, wantCRC := logSeal(t, localDir, lj.ID())
	gotLog, gotRecords, gotCRC := logSeal(t, distDir, j.ID())
	if !bytes.Equal(gotLog, wantLog) {
		t.Errorf("result log differs from the local job's (%d vs %d bytes)", len(gotLog), len(wantLog))
	}
	if gotRecords != wantRecords || gotCRC != wantCRC || gotRecords != 16 {
		t.Errorf("manifest seal %d records / crc %s, local job's %d / %s", gotRecords, gotCRC, wantRecords, wantCRC)
	}

	// Re-read after a restart: replay verifies the seal and serves the
	// same bytes.
	reopened := openStore(t, coordEngine(), service.JobStoreConfig{}, distDir)
	rj, err := reopened.Get(j.ID())
	if err != nil {
		t.Fatal(err)
	}
	if st := rj.Status(); st.State != service.JobCompleted || st.PointsDone != 16 {
		t.Fatalf("replayed job: %+v", st)
	}
	assertGolden(t, rj, golden)
}
