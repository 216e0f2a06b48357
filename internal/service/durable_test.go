package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// durableSweepReq is the struct form of jobSweepBody: a 16-point grid
// spanning every strategy and both defect models, cheap enough to finish in
// well under a second.
func durableSweepReq() SweepRequest {
	return SweepRequest{
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

// durableSlowReq is a grid heavy enough (24 points × 15000 runs) that a
// test reliably observes it mid-flight, yet completes in a few seconds once
// resumed.
func durableSlowReq() SweepRequest {
	return SweepRequest{
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

// durableEngine builds a fresh engine with the defaults the durable tests
// share, so golden and restarted runs resolve identical simulation
// parameters.
func durableEngine() *Engine {
	return NewEngine(EngineConfig{DefaultRuns: 150, CacheSize: 256})
}

// waitStoreReady blocks until the store finishes its replay scan.
func waitStoreReady(t *testing.T, s *Store) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !s.Ready() {
		if time.Now().After(deadline) {
			t.Fatal("store never became ready")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// streamBytes drains a job's full result stream from the given cursor.
func streamBytes(t *testing.T, j *Job, cursor int) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
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

// runGolden evaluates req on a fresh in-memory store and returns the
// finished job's exact stream bytes — the single-process reference every
// durable or distributed run must reproduce.
func runGolden(t *testing.T, req SweepRequest) []byte {
	t.Helper()
	s := NewJobStore(durableEngine(), JobStoreConfig{})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("golden store close: %v", err)
		}
	}()
	req.Distributed = false
	j, err := s.Create(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	st, err := j.Wait(ctx)
	if err != nil || st.State != JobCompleted {
		t.Fatalf("golden job: %+v, %v", st, err)
	}
	return streamBytes(t, j, 0)
}

// waitPointsDone polls until the job has emitted at least n records.
func waitPointsDone(t *testing.T, j *Job, n int) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for j.Status().PointsDone < n {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck at %d points, want >= %d", j.Status().PointsDone, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// assertCursorSuffixes checks the byte-identity contract at several cursors:
// the stream from cursor k must be the exact suffix of the golden stream
// after its first k lines.
func assertCursorSuffixes(t *testing.T, j *Job, golden []byte) {
	t.Helper()
	lines := bytes.SplitAfter(golden, []byte("\n"))
	if len(lines) > 0 && len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	for _, cursor := range []int{0, 1, len(lines) / 2, len(lines) - 1, len(lines)} {
		if cursor < 0 {
			continue
		}
		want := bytes.Join(lines[cursor:], nil)
		if got := streamBytes(t, j, cursor); !bytes.Equal(got, want) {
			t.Fatalf("cursor %d: stream diverges from golden\n got %d bytes\nwant %d bytes", cursor, len(got), len(want))
		}
	}
}

func TestFileStoreRestartServesFinishedJob(t *testing.T) {
	dir := t.TempDir()
	e1 := durableEngine()
	s1, err := NewFileJobStore(e1, JobStoreConfig{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	waitStoreReady(t, s1)
	j, err := s1.Create(context.Background(), durableSweepReq())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if st, err := j.Wait(ctx); err != nil || st.State != JobCompleted {
		t.Fatalf("job: %+v, %v", st, err)
	}
	want := streamBytes(t, j, 0)
	if s1.DiskBytes() <= int64(len(want)) {
		t.Errorf("DiskBytes = %d, want > %d (results + manifest)", s1.DiskBytes(), len(want))
	}
	// The disk gauge is registered on the engine's registry.
	mw := httptest.NewRecorder()
	e1.Registry().Handler().ServeHTTP(mw, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(mw.Body.String(), "dmfb_job_store_disk_bytes") {
		t.Error("metrics exposition lacks dmfb_job_store_disk_bytes")
	}
	if err := s1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	// A new store on the same directory serves the job without recomputing.
	s2, err := NewFileJobStore(durableEngine(), JobStoreConfig{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close(context.Background())
	waitStoreReady(t, s2)
	j2, err := s2.Get(j.ID())
	if err != nil {
		t.Fatal(err)
	}
	st := j2.Status()
	if st.State != JobCompleted || st.PointsDone != 16 || st.TotalPoints != 16 {
		t.Fatalf("replayed status %+v", st)
	}
	if got := streamBytes(t, j2, 0); !bytes.Equal(got, want) {
		t.Fatalf("replayed stream differs: %d bytes vs %d", len(got), len(want))
	}
	// The ID sequence is seeded past replayed jobs.
	j3, err := s2.Create(context.Background(), durableSweepReq())
	if err != nil {
		t.Fatal(err)
	}
	if j3.ID() == j.ID() {
		t.Fatalf("new job reused replayed ID %s", j.ID())
	}
}

func TestFileStoreGracefulShutdownResumesRunningJob(t *testing.T) {
	dir := t.TempDir()
	req := durableSlowReq()
	golden := runGolden(t, req)

	s1, err := NewFileJobStore(durableEngine(), JobStoreConfig{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	waitStoreReady(t, s1)
	j, err := s1.Create(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	waitPointsDone(t, j, 2)
	// Graceful shutdown interrupts the job but must NOT persist a terminal
	// cancellation the client never asked for.
	if err := s1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2, err := NewFileJobStore(durableEngine(), JobStoreConfig{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close(context.Background())
	waitStoreReady(t, s2)
	j2, err := s2.Get(j.ID())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	st, err := j2.Wait(ctx)
	if err != nil || st.State != JobCompleted {
		t.Fatalf("resumed job: %+v, %v", st, err)
	}
	if got := streamBytes(t, j2, 0); !bytes.Equal(got, golden) {
		t.Fatalf("resumed stream differs from golden: %d bytes vs %d", len(got), len(golden))
	}
	assertCursorSuffixes(t, j2, golden)
}

func TestFileStoreCrashResumesAndTruncatesPartialLine(t *testing.T) {
	dir := t.TempDir()
	req := durableSlowReq()
	golden := runGolden(t, req)

	s1, err := NewFileJobStore(durableEngine(), JobStoreConfig{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	waitStoreReady(t, s1)
	j, err := s1.Create(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	waitPointsDone(t, j, 2)
	// SIGKILL: no terminal state reaches disk, handles drop mid-flight.
	s1.crashForTest()
	// Simulate death mid-append on top of it: a torn half-record at the log
	// tail must be truncated away and re-evaluated on resume.
	log := filepath.Join(dir, j.ID(), "results.ndjson")
	f, err := os.OpenFile(log, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"index":999,"yield":0.5`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := NewFileJobStore(durableEngine(), JobStoreConfig{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close(context.Background())
	waitStoreReady(t, s2)
	j2, err := s2.Get(j.ID())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	st, err := j2.Wait(ctx)
	if err != nil || st.State != JobCompleted {
		t.Fatalf("crash-resumed job: %+v, %v", st, err)
	}
	if got := streamBytes(t, j2, 0); !bytes.Equal(got, golden) {
		t.Fatalf("crash-resumed stream differs from golden: %d bytes vs %d", len(got), len(golden))
	}
	assertCursorSuffixes(t, j2, golden)
}

func TestFileStoreEvictionRemovesDiskArtifacts(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileJobStore(durableEngine(), JobStoreConfig{MaxJobs: 2}, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	waitStoreReady(t, s)

	ids := make([]string, 0, 3)
	req := durableSweepReq()
	for i := 0; i < 3; i++ {
		req.Seed = int64(100 + i) // distinct jobs, no cache interference
		j, err := s.Create(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		if st, err := j.Wait(ctx); err != nil || st.State != JobCompleted {
			cancel()
			t.Fatalf("job %d: %+v, %v", i, st, err)
		}
		cancel()
		// Wait returns a saved state: the manifest already says so.
		if st := savedState(t, dir, j.ID()); st != JobCompleted {
			t.Fatalf("job %d: manifest state %q right after Wait, want completed", i, st)
		}
		ids = append(ids, j.ID())
	}
	// Creating the third job evicted the oldest finished one — including its
	// on-disk artifacts, so retention bounds hold across restarts.
	if _, err := s.Get(ids[0]); !errors.Is(err, ErrJobNotFound) {
		t.Fatalf("evicted job lookup: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, ids[0])); !os.IsNotExist(err) {
		t.Fatalf("evicted job directory still on disk: %v", err)
	}
	if s.engine.Stats().JobEvictions == 0 {
		t.Error("eviction counter not incremented")
	}

	// A restart replays only the retained jobs and keeps honoring the bound.
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	s2, err := NewFileJobStore(durableEngine(), JobStoreConfig{MaxJobs: 2}, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close(context.Background())
	waitStoreReady(t, s2)
	if _, err := s2.Get(ids[1]); err != nil {
		t.Errorf("retained job %s missing after restart: %v", ids[1], err)
	}
	if _, err := s2.Get(ids[2]); err != nil {
		t.Errorf("retained job %s missing after restart: %v", ids[2], err)
	}
	if got := s2.DiskBytes(); got <= 0 {
		t.Errorf("DiskBytes after restart = %d, want > 0", got)
	}
}

// savedState reads the state a job's manifest holds on disk.
func savedState(t *testing.T, dir, id string) JobState {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, id, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m jobManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m.State
}

// TestEvictWaitsForTerminalSave drives by hand the interleaving in which a
// Create at capacity races a finishing job: the job is terminal but its
// terminal manifest is not yet saved. Evicting it then would delete its
// directory only for the save to bring it back, and a restart would serve
// it as completed with no record. Until the job settles, Create must
// refuse instead; once it has, Create evicts it for good.
func TestEvictWaitsForTerminalSave(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileJobStore(durableEngine(), JobStoreConfig{MaxJobs: 1}, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	waitStoreReady(t, s)

	// 1. A running job, registered and evaluated as Create and run do,
	// without the job goroutine.
	req := durableSweepReq()
	plan, err := s.engine.PlanSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	j := &Job{id: "job-1", store: s, plan: plan, req: req, totalPoints: plan.NumPoints(),
		done: make(chan struct{}), state: JobRunning, created: time.Now(), update: make(chan struct{})}
	s.mu.Lock()
	s.seq = 1
	if err := s.persist.saveManifest(j.manifest()); err != nil {
		t.Fatal(err)
	}
	s.addLocked(j)
	s.mu.Unlock()
	if err := s.engine.RunSweepRange(context.Background(), plan, 0, plan.NumPoints(), j.commit); err != nil {
		t.Fatal(err)
	}

	// 2. Terminal, as run makes it, but not yet saved.
	j.mu.Lock()
	j.state = JobCompleted
	j.finished = time.Now()
	j.bumpLocked()
	j.mu.Unlock()

	// 3. A Create at capacity must not evict the unsaved job.
	req.Seed = 99
	if _, err := s.Create(context.Background(), req); !errors.Is(err, ErrTooManyJobs) {
		t.Fatalf("Create while the only job is unsaved: %v, want ErrTooManyJobs", err)
	}
	if _, err := os.Stat(filepath.Join(dir, j.ID())); err != nil {
		t.Fatalf("unsaved job's directory: %v", err)
	}

	// 4. Saved and settled, the job is evictable with its directory.
	s.persistTerminal(j)
	s.mu.Lock()
	s.settleLocked(j)
	s.mu.Unlock()
	j2, err := s.Create(context.Background(), req)
	if err != nil {
		t.Fatalf("Create after the job settled: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, j.ID())); !os.IsNotExist(err) {
		t.Fatalf("evicted job's directory still on disk: %v", err)
	}
	if st := waitTerminalState(t, j2); st.State != JobCompleted {
		t.Fatalf("second job: %+v", st)
	}
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	// 5. A restart with room to spare does not bring the evicted job back.
	s2, err := NewFileJobStore(durableEngine(), JobStoreConfig{MaxJobs: 4}, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close(context.Background())
	waitStoreReady(t, s2)
	if got, err := s2.Get(j.ID()); err == nil {
		t.Fatalf("evicted job back after a restart: %+v", got.Status())
	} else if !errors.Is(err, ErrJobNotFound) {
		t.Fatalf("evicted job after a restart: %v, want ErrJobNotFound", err)
	}
	if _, err := s2.Get(j2.ID()); err != nil {
		t.Errorf("retained job %s missing after restart: %v", j2.ID(), err)
	}
}

// TestFileStoreConcurrentEvictionLeavesNoOrphan races four creators at a
// cap of two jobs, so Creates keep meeting jobs that are finishing: every
// directory left on disk must belong to a retained job, and a restart with
// room to spare must bring back exactly the retained jobs, whole.
func TestFileStoreConcurrentEvictionLeavesNoOrphan(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileJobStore(durableEngine(), JobStoreConfig{MaxJobs: 2}, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	waitStoreReady(t, s)
	const creators, perCreator = 4, 5
	var wg sync.WaitGroup
	ids := make(chan string, creators*perCreator)
	for c := range creators {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := durableSweepReq()
			for i := range perCreator {
				req.Seed = int64(1000 + c*perCreator + i)
				j, err := s.Create(context.Background(), req)
				for errors.Is(err, ErrTooManyJobs) {
					time.Sleep(time.Millisecond)
					j, err = s.Create(context.Background(), req)
				}
				if err != nil {
					t.Error(err)
					return
				}
				ids <- j.ID()
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				_, err = j.Wait(ctx)
				cancel()
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(ids)

	retained := map[string]bool{}
	for id := range ids {
		if _, err := s.Get(id); err == nil {
			retained[id] = true
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !retained[e.Name()] {
			t.Errorf("directory %s left on disk by an evicted job", e.Name())
		}
	}
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2, err := NewFileJobStore(durableEngine(), JobStoreConfig{MaxJobs: 64}, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close(context.Background())
	waitStoreReady(t, s2)
	for n := 1; n <= creators*perCreator; n++ {
		id := fmt.Sprintf("job-%d", n)
		j, err := s2.Get(id)
		switch {
		case retained[id] != (err == nil):
			t.Errorf("%s after a restart: %v; retained before it: %v", id, err, retained[id])
		case err == nil:
			if st := j.Status(); st.State != JobCompleted || st.PointsDone != st.TotalPoints {
				t.Errorf("retained job after a restart: %+v", st)
			}
		}
	}
}

// TestFileStoreCancelIsDurable cancels a running job: by the time Cancel
// returns, the manifest says cancelled, and a crash right after it brings
// the job back cancelled, not resumed.
func TestFileStoreCancelIsDurable(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileJobStore(durableEngine(), JobStoreConfig{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	waitStoreReady(t, s)
	j, err := s.Create(context.Background(), durableSlowReq())
	if err != nil {
		t.Fatal(err)
	}
	waitPointsDone(t, j, 1)
	if st := j.Cancel(); st.State != JobCancelled {
		t.Fatalf("Cancel returned %+v, want cancelled", st)
	}
	if st := savedState(t, dir, j.ID()); st != JobCancelled {
		t.Fatalf("manifest state %q right after Cancel, want cancelled", st)
	}
	s.crashForTest()

	s2, err := NewFileJobStore(durableEngine(), JobStoreConfig{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close(context.Background())
	waitStoreReady(t, s2)
	j2, err := s2.Get(j.ID())
	if err != nil {
		t.Fatal(err)
	}
	if st := j2.Status(); st.State != JobCancelled || st.PointsDone >= st.TotalPoints {
		t.Fatalf("cancelled job after a crash: %+v, want cancelled short of its grid", st)
	}
}

func TestFileStoreReadinessGate(t *testing.T) {
	dir := t.TempDir()
	// Seed the directory with one finished job.
	s1, err := NewFileJobStore(durableEngine(), JobStoreConfig{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	waitStoreReady(t, s1)
	j, err := s1.Create(context.Background(), durableSweepReq())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if st, err := j.Wait(ctx); err != nil || st.State != JobCompleted {
		t.Fatalf("seed job: %+v, %v", st, err)
	}
	if err := s1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	gate := make(chan struct{})
	e := durableEngine()
	s2, err := newFileJobStore(e, JobStoreConfig{}, dir, gate)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close(context.Background())
	mux := NewMux(e, s2)

	// While the replay is gated: not ready, 503 from the readiness probe and
	// from job creation/lookup — but liveness stays 200.
	if s2.Ready() {
		t.Fatal("store ready before replay")
	}
	if w := doJSON(t, mux, http.MethodGet, "/readyz", ""); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during replay = %d", w.Code)
	}
	if w := doJSON(t, mux, http.MethodGet, "/healthz", ""); w.Code != http.StatusOK {
		t.Fatalf("/healthz during replay = %d", w.Code)
	}
	if _, err := s2.Create(context.Background(), durableSweepReq()); !errors.Is(err, ErrNotReady) {
		t.Fatalf("Create during replay: %v", err)
	}
	if _, err := s2.Get(j.ID()); !errors.Is(err, ErrNotReady) {
		t.Fatalf("Get during replay: %v", err)
	}

	close(gate)
	waitStoreReady(t, s2)
	if w := doJSON(t, mux, http.MethodGet, "/readyz", ""); w.Code != http.StatusOK {
		t.Fatalf("/readyz after replay = %d", w.Code)
	}
	if _, err := s2.Get(j.ID()); err != nil {
		t.Fatalf("Get after replay: %v", err)
	}
}

func TestSweepRejectsDistributedWithoutRunner(t *testing.T) {
	mux, _ := testJobMux(t, EngineConfig{DefaultRuns: 150}, JobStoreConfig{})
	body := `{"strategies":["local"],"designs":["DTMB(2,6)"],"n_primaries":[40],"ps":[0.95],"runs":150,"seed":1,"distributed":true}`
	// Synchronous /v1/sweep never accepts distributed mode.
	if w := doJSON(t, mux, http.MethodPost, "/v1/sweep", body); w.Code != http.StatusBadRequest {
		t.Errorf("/v1/sweep distributed = %d, want 400", w.Code)
	}
	// /v2/jobs rejects it when no dispatch runner is configured.
	if w := doJSON(t, mux, http.MethodPost, "/v2/jobs", body); w.Code != http.StatusBadRequest {
		t.Errorf("/v2/jobs distributed without runner = %d, want 400", w.Code)
	}
}

// TestScanResultLogLongLines reads back a log whose records are longer
// than the scan's read buffer: every record must verify and come back
// whole, and the torn tail must stop the scan. A seal of 2 records keeps
// exactly those two; a seal the log cannot meet keeps none.
func TestScanResultLogLongLines(t *testing.T) {
	var disk []byte
	var want [][]byte
	for _, n := range []int{10, 5000, 9000, 20} {
		payload := append(bytes.Repeat([]byte("7"), n), '\n')
		want = append(want, payload)
		disk = appendRecordLine(disk, payload)
	}
	verifiedSize := int64(len(disk))
	disk = append(disk, `0badc0de {"index":`...) // torn tail
	path := filepath.Join(t.TempDir(), "results.ndjson")
	if err := os.WriteFile(path, disk, 0o644); err != nil {
		t.Fatal(err)
	}
	p := &filePersister{}
	res, verified, size, err := p.scanResultLog(path, nil, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if size != int64(len(disk)) || verified.size != verifiedSize || verified.records != len(want) {
		t.Fatalf("scan: size %d, verified %+v; want size %d, %d records in %d bytes", size, verified, len(disk), len(want), verifiedSize)
	}
	if !bytes.Equal(res.buf, bytes.Join(want, nil)) || res.count() != len(want) {
		t.Error("scanned payloads differ from the written ones")
	}

	// Whole records past the seal: the scan keeps exactly the sealed two.
	two := logPrefix{records: 2,
		chain: crc32.Update(crc32.Checksum(want[0], crcTable), crcTable, want[1]),
		size:  int64(2*recordCRCLen + len(want[0]) + len(want[1]))}
	res, kept, size, err := p.scanResultLog(path, &two, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if kept != two || size != int64(len(disk)) {
		t.Errorf("sealed at 2: kept %+v of %d bytes, want %+v of %d", kept, size, two, len(disk))
	}
	if !bytes.Equal(res.buf, bytes.Join(want[:2], nil)) || res.count() != 2 {
		t.Error("sealed scan's payloads differ from the first two written")
	}

	// A seal the log cannot meet: a wrong chain, or one record more than
	// the log verifies.
	wrongChain := two
	wrongChain.chain++
	tooMany := logPrefix{records: len(want) + 1, chain: verified.chain}
	for _, seal := range []logPrefix{wrongChain, tooMany} {
		res, kept, _, err := p.scanResultLog(path, &seal, true, false)
		if res.buf != nil || res.ends != nil || kept != (logPrefix{}) || !errors.Is(err, errSealMismatch) {
			t.Errorf("seal %+v: %d lines, kept %+v, err %v; want none, the zero prefix and a seal mismatch", seal, res.count(), kept, err)
		}
	}
}

// TestReadResultsEmptiesOnlyAMismatchedLog checks the first read's two
// failures: a log that fails its seal is emptied with the job's committed
// prefix and named as a failed verification, while an I/O error passes
// through as one and leaves the log and the prefix alone.
func TestReadResultsEmptiesOnlyAMismatchedLog(t *testing.T) {
	dir := t.TempDir()
	want := logPrefix{records: 1, chain: 1, size: 20}
	p := &filePersister{dir: dir, jobs: map[string]*jobFiles{
		"job-1": {committed: want}, "job-2": {committed: want}}}
	for _, id := range []string{"job-1", "job-2"} {
		if err := os.MkdirAll(p.jobDir(id), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	log1 := filepath.Join(p.jobDir("job-1"), "results.ndjson")
	if err := os.WriteFile(log1, appendRecordLine(nil, []byte("{}\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	// A directory where job-2's log should be: its read fails with EISDIR.
	if err := os.Mkdir(filepath.Join(p.jobDir("job-2"), "results.ndjson"), 0o755); err != nil {
		t.Fatal(err)
	}

	res, err := p.readResults("job-1", want)
	if res.buf != nil || res.ends != nil || !errors.Is(err, errSealMismatch) || !strings.Contains(err.Error(), "failed verification on first read") {
		t.Fatalf("mismatched log: %d lines, err %v; want none and a failed verification", res.count(), err)
	}
	if fi, err := os.Stat(log1); err != nil || fi.Size() != 0 {
		t.Errorf("mismatched log not emptied: %v, %v", fi, err)
	}
	if c := p.jobs["job-1"].committed; c != (logPrefix{}) {
		t.Errorf("mismatched log's committed prefix = %+v, want zero", c)
	}

	res, err = p.readResults("job-2", want)
	if res.buf != nil || res.ends != nil || err == nil || errors.Is(err, errSealMismatch) || strings.Contains(err.Error(), "failed verification") {
		t.Fatalf("unreadable log: %d lines, err %v; want none and a plain I/O error", res.count(), err)
	}
	if c := p.jobs["job-2"].committed; c != want {
		t.Errorf("unreadable log's committed prefix = %+v, want %+v kept", c, want)
	}
}
