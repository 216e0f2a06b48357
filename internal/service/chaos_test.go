package service

// Storage-side chaos: seeded fault schedules against the durable file store.
// The contract mirrors the dispatch chaos suite's — a fault the store cannot
// absorb produces a typed failed/storage terminal state (never a wedged
// store, never silently wrong bytes), and everything the store does persist
// verifies against its CRC seal on replay.

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"dmfb/internal/faultinject"
)

// metricValue scrapes one unlabeled metric's value from the engine
// registry's exposition text; -1 when the family is absent.
func metricValue(t *testing.T, e *Engine, name string) float64 {
	t.Helper()
	w := httptest.NewRecorder()
	e.Registry().Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, line := range strings.Split(w.Body.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				t.Fatalf("unparseable metric line %q: %v", line, err)
			}
			return v
		}
	}
	return -1
}

func waitTerminalState(t *testing.T, j *Job) JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := j.Wait(ctx)
	if err != nil {
		t.Fatalf("job never reached a terminal state: %v", err)
	}
	return st
}

// TestChaosStoreAppendTornWrite tears the third result append mid-record:
// the job must fail with reason=storage and a counted write error, and a
// restart must truncate the torn tail back to the verified prefix while
// preserving the typed failure.
func TestChaosStoreAppendTornWrite(t *testing.T) {
	dir := t.TempDir()
	req := durableSweepReq()
	golden := runGolden(t, req)
	inj := faultinject.New(11).Arm(faultinject.StoreAppendWrite, faultinject.Rule{Hits: []int{3}})
	// One point at a time commits each record as its own run, so the third
	// append, the torn one, falls inside the job.
	e := NewEngine(EngineConfig{DefaultRuns: 150, CacheSize: 256, MaxConcurrent: 1})
	s, err := NewFileJobStore(e, JobStoreConfig{Inject: inj}, dir)
	if err != nil {
		t.Fatal(err)
	}
	waitStoreReady(t, s)
	j, err := s.Create(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminalState(t, j)
	if st.State != JobFailed || st.Reason != ReasonStorage {
		t.Fatalf("torn append: state=%q reason=%q, want failed/storage (%+v)", st.State, st.Reason, st)
	}
	if !strings.Contains(st.Error, "persist result record") {
		t.Errorf("error %q does not name the failed persist", st.Error)
	}
	if v := metricValue(t, e, "dmfb_store_write_errors_total"); v < 1 {
		t.Errorf("dmfb_store_write_errors_total = %v, want >= 1", v)
	}
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Restart without chaos: the torn tail fails its CRC and is truncated;
	// the records the job published before the tear replay byte-identical
	// to the golden prefix.
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
	st2 := j2.Status()
	if st2.State != JobFailed || st2.Reason != ReasonStorage {
		t.Fatalf("replayed torn job: state=%q reason=%q, want failed/storage", st2.State, st2.Reason)
	}
	if st2.PointsDone != st.PointsDone || st.PointsDone != 2 {
		t.Errorf("PointsDone = %d after replay, %d published before the tear; want the 2 records before the third append",
			st2.PointsDone, st.PointsDone)
	}
	got := streamBytes(t, j2, 0)
	lines := bytes.SplitAfter(golden, []byte("\n"))
	if prefix := bytes.Join(lines[:st2.PointsDone], nil); !bytes.HasPrefix(got, prefix) {
		t.Error("replayed records diverge from the golden prefix")
	}
	if !bytes.Contains(got, []byte(`"error"`)) {
		t.Error("failed job's stream lacks the terminal error line")
	}
}

// TestChaosStoreENOSPCNotWedged fails the very first append with a no-space
// error: that job fails with reason=storage, but the store itself keeps
// accepting and completing jobs.
func TestChaosStoreENOSPCNotWedged(t *testing.T) {
	dir := t.TempDir()
	req := durableSweepReq()
	golden := runGolden(t, req)
	inj := faultinject.New(12).Arm(faultinject.StoreAppendENOSPC, faultinject.Rule{Hits: []int{1}})
	s, err := NewFileJobStore(durableEngine(), JobStoreConfig{Inject: inj}, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	waitStoreReady(t, s)
	// The failing job may evaluate points before its first append fails. A
	// different seed keeps those results out of the second job's cache keys,
	// so the second stream carries no cache provenance the golden lacks.
	failing := req
	failing.Seed++
	j1, err := s.Create(context.Background(), failing)
	if err != nil {
		t.Fatal(err)
	}
	st1 := waitTerminalState(t, j1)
	if st1.State != JobFailed || st1.Reason != ReasonStorage {
		t.Fatalf("ENOSPC job: state=%q reason=%q, want failed/storage", st1.State, st1.Reason)
	}
	if st1.PointsDone != 0 {
		t.Errorf("PointsDone = %d, want 0 (append failed before any byte)", st1.PointsDone)
	}
	// The store is not wedged: the next job runs to completion.
	j2, err := s.Create(context.Background(), req)
	if err != nil {
		t.Fatalf("create after ENOSPC: %v", err)
	}
	if st2 := waitTerminalState(t, j2); st2.State != JobCompleted {
		t.Fatalf("job after ENOSPC: %+v", st2)
	}
	if got := streamBytes(t, j2, 0); !bytes.Equal(got, golden) {
		t.Error("post-ENOSPC job diverges from golden")
	}
}

// TestChaosManifestWriteFailureSurfacesOnCreate fails the first manifest
// save: Create itself errors with the injected fault (no half-born job), and
// the store keeps working afterwards.
func TestChaosManifestWriteFailureSurfacesOnCreate(t *testing.T) {
	dir := t.TempDir()
	inj := faultinject.New(13).Arm(faultinject.StoreManifestWrite, faultinject.Rule{Hits: []int{1}})
	e := durableEngine()
	s, err := NewFileJobStore(e, JobStoreConfig{Inject: inj}, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	waitStoreReady(t, s)
	if _, err := s.Create(context.Background(), durableSweepReq()); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("create under manifest fault: err = %v, want ErrInjected", err)
	}
	if v := metricValue(t, e, "dmfb_store_write_errors_total"); v < 1 {
		t.Errorf("dmfb_store_write_errors_total = %v, want >= 1", v)
	}
	j, err := s.Create(context.Background(), durableSweepReq())
	if err != nil {
		t.Fatalf("create after manifest fault: %v", err)
	}
	if st := waitTerminalState(t, j); st.State != JobCompleted {
		t.Fatalf("job after manifest fault: %+v", st)
	}
}

// TestChaosReplayCorruptionDemotesJob completes a job cleanly, then replays
// it through a bit-flipping read: the CRC chain no longer matches the sealed
// manifest, so the job is demoted to failed/storage with a diagnostic — and
// the demotion itself is durable across a further clean restart.
func TestChaosReplayCorruptionDemotesJob(t *testing.T) {
	dir := t.TempDir()
	req := durableSweepReq()
	s1, err := NewFileJobStore(durableEngine(), JobStoreConfig{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	waitStoreReady(t, s1)
	j, err := s1.Create(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminalState(t, j); st.State != JobCompleted {
		t.Fatalf("seed job: %+v", st)
	}
	total := j.Status().TotalPoints
	if err := s1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	inj := faultinject.New(14).Arm(faultinject.StoreReplayCorrupt, faultinject.Rule{Hits: []int{1}})
	s2, err := NewFileJobStore(durableEngine(), JobStoreConfig{Inject: inj}, dir)
	if err != nil {
		t.Fatal(err)
	}
	waitStoreReady(t, s2)
	j2, err := s2.Get(j.ID())
	if err != nil {
		t.Fatal(err)
	}
	st2 := j2.Status()
	if st2.State != JobFailed || st2.Reason != ReasonStorage {
		t.Fatalf("corrupted replay: state=%q reason=%q, want failed/storage", st2.State, st2.Reason)
	}
	if !strings.Contains(st2.Error, "failed verification") {
		t.Errorf("error %q does not name the verification failure", st2.Error)
	}
	if st2.PointsDone >= total {
		t.Errorf("PointsDone = %d, want < %d (corrupted suffix truncated)", st2.PointsDone, total)
	}
	if err := s2.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The demotion was persisted: a clean restart still sees failed/storage.
	s3, err := NewFileJobStore(durableEngine(), JobStoreConfig{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close(context.Background())
	waitStoreReady(t, s3)
	j3, err := s3.Get(j.ID())
	if err != nil {
		t.Fatal(err)
	}
	if st3 := j3.Status(); st3.State != JobFailed || st3.Reason != ReasonStorage {
		t.Fatalf("demotion not durable: state=%q reason=%q", st3.State, st3.Reason)
	}
}

// TestDurableReplayBitFlippedTrailingRecord flips one bit inside the last
// committed record of a crashed running job: replay must detect the CRC
// mismatch, truncate that record away, re-evaluate it, and still produce the
// golden bytes — corruption of a resumable job costs recomputation, never
// correctness.
func TestDurableReplayBitFlippedTrailingRecord(t *testing.T) {
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
	s1.crashForTest()

	log := filepath.Join(dir, j.ID(), "results.ndjson")
	raw, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 || raw[len(raw)-1] != '\n' {
		t.Fatalf("result log tail not newline-terminated (%d bytes)", len(raw))
	}
	start := bytes.LastIndexByte(raw[:len(raw)-1], '\n') + 1
	if len(raw)-start <= recordCRCLen+2 {
		t.Fatalf("last record too short to corrupt: %d bytes", len(raw)-start)
	}
	raw[start+recordCRCLen+1] ^= 0x01 // one bit inside the JSON payload
	if err := os.WriteFile(log, raw, 0o644); err != nil {
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

// TestDurableReplayInterruptedManifestRename covers the tmp+rename seam: a
// job directory holding only a manifest tmp (the rename never happened) is
// skipped and its tmp removed, while a stale tmp beside a committed manifest
// loses to the committed copy and is cleaned up.
func TestDurableReplayInterruptedManifestRename(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewFileJobStore(durableEngine(), JobStoreConfig{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	waitStoreReady(t, s1)
	j, err := s1.Create(context.Background(), durableSweepReq())
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminalState(t, j); st.State != JobCompleted {
		t.Fatalf("seed job: %+v", st)
	}
	want := streamBytes(t, j, 0)
	if err := s1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	orphan := filepath.Join(dir, "job-9")
	if err := os.MkdirAll(orphan, 0o755); err != nil {
		t.Fatal(err)
	}
	orphanTmp := filepath.Join(orphan, "manifest.json.tmp")
	if err := os.WriteFile(orphanTmp, []byte(`{"id":"job-9","state":"comple`), 0o644); err != nil {
		t.Fatal(err)
	}
	staleTmp := filepath.Join(dir, j.ID(), "manifest.json.tmp")
	if err := os.WriteFile(staleTmp, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := NewFileJobStore(durableEngine(), JobStoreConfig{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close(context.Background())
	waitStoreReady(t, s2)
	if _, err := s2.Get("job-9"); err == nil {
		t.Error("job with only an uncommitted manifest tmp was resurrected")
	}
	j2, err := s2.Get(j.ID())
	if err != nil {
		t.Fatal(err)
	}
	if st := j2.Status(); st.State != JobCompleted {
		t.Fatalf("committed job lost to a stale tmp: %+v", st)
	}
	if got := streamBytes(t, j2, 0); !bytes.Equal(got, want) {
		t.Error("replayed stream differs after tmp cleanup")
	}
	for _, p := range []string{orphanTmp, staleTmp} {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s survived replay, want removed", p)
		}
	}
}
