package service

// A restarted durable store replays a finished job's result log to verify
// it, but keeps only the verified record count and CRC chain: the lines stay
// on disk until the job's first read, which must match them. These tests pin
// that cold replay: what a replayed job holds, the bytes its first read
// serves, the single shared load, and the demotion of a log that changed
// before replay or between replay and first read.

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dmfb/internal/faultinject"
)

// seedFinishedJob completes durableSweepReq on a durable store over dir and
// closes the store, returning the job's ID and its stream bytes.
func seedFinishedJob(t *testing.T, dir string) (string, []byte) {
	t.Helper()
	s, err := NewFileJobStore(durableEngine(), JobStoreConfig{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	waitStoreReady(t, s)
	j, err := s.Create(context.Background(), durableSweepReq())
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminalState(t, j); st.State != JobCompleted {
		t.Fatalf("seed job: %+v", st)
	}
	want := streamBytes(t, j, 0)
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	return j.ID(), want
}

// reopen replays dir on a new durable store and returns it with job id.
func reopen(t *testing.T, dir, id string, inj *faultinject.Injector) (*Store, *Job) {
	t.Helper()
	s, err := NewFileJobStore(durableEngine(), JobStoreConfig{Inject: inj}, dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close(context.Background()) })
	waitStoreReady(t, s)
	j, err := s.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	return s, j
}

// heldLines reports how many lines the job holds in memory and whether
// they are still on disk awaiting a first read.
func heldLines(j *Job) (int, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.res.count(), j.onDisk != nil
}

// TestColdReplayHoldsNoLines: after a restart a finished job holds no line,
// yet reports its sealed record count and keeps its result bytes in the
// store's retention account, exactly as when it finished.
func TestColdReplayHoldsNoLines(t *testing.T) {
	dir := t.TempDir()
	id, want := seedFinishedJob(t, dir)
	s, j := reopen(t, dir, id, nil)
	if n, onDisk := heldLines(j); n != 0 || !onDisk {
		t.Fatalf("replayed job holds %d lines (on disk: %v), want 0 awaiting a first read", n, onDisk)
	}
	sealed := len(goldenLines(want))
	if st := j.Status(); st.State != JobCompleted || st.PointsDone != sealed {
		t.Fatalf("replayed status %+v, want completed with %d points", st, sealed)
	}
	if got := metricValue(t, s.engine, "dmfb_job_result_buffer_bytes"); got != float64(len(want)) {
		t.Errorf("dmfb_job_result_buffer_bytes = %v, want the %d stream bytes", got, len(want))
	}
}

// TestColdReplayFirstStream: the first stream of a replayed job, from the
// start or from a middle cursor, carries the bytes served before the
// restart, and publishes the lines for every later read.
func TestColdReplayFirstStream(t *testing.T) {
	dir := t.TempDir()
	id, want := seedFinishedJob(t, dir)
	lines := goldenLines(want)
	for _, cursor := range []int{0, len(lines) / 2} {
		t.Run(fmt.Sprintf("cursor=%d", cursor), func(t *testing.T) {
			_, j := reopen(t, dir, id, nil)
			if got, want := streamBytes(t, j, cursor), bytes.Join(lines[cursor:], nil); !bytes.Equal(got, want) {
				t.Fatalf("first stream from cursor %d: %d bytes, want %d", cursor, len(got), len(want))
			}
			if n, onDisk := heldLines(j); n != len(lines) || onDisk {
				t.Fatalf("after the first read the job holds %d lines (on disk: %v), want %d in memory", n, onDisk, len(lines))
			}
			assertCursorSuffixes(t, j, want)
		})
	}
}

// TestColdReplayConcurrentFirstReaders: two readers that race to a
// replayed job's first read both get the bytes served before the restart
// from one read of its log. The store.replay.corrupt seam, armed with a
// rule that never fires, counts the reads. A job finished after the
// restart is served from memory and reads no log.
func TestColdReplayConcurrentFirstReaders(t *testing.T) {
	dir := t.TempDir()
	id, want := seedFinishedJob(t, dir)
	inj := faultinject.New(1).Arm(faultinject.StoreReplayCorrupt, faultinject.Rule{})
	s, j := reopen(t, dir, id, inj)
	if hits, _ := inj.Counts(faultinject.StoreReplayCorrupt); hits != 1 {
		t.Fatalf("replay read %d logs, want 1", hits)
	}
	start := make(chan struct{})
	got := make([][]byte, 2)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			var buf bytes.Buffer
			if _, err := j.StreamResults(context.Background(), 0, func(line []byte) error {
				_, err := buf.Write(line)
				return err
			}); err != nil {
				t.Errorf("reader %d: %v", i, err)
			}
			got[i] = buf.Bytes()
		}()
	}
	close(start)
	wg.Wait()
	for i, b := range got {
		if !bytes.Equal(b, want) {
			t.Errorf("reader %d got %d bytes, want the %d served before the restart", i, len(b), len(want))
		}
	}
	if hits, _ := inj.Counts(faultinject.StoreReplayCorrupt); hits != 2 {
		t.Errorf("replay and two first readers read %d logs, want 2", hits)
	}

	fresh, err := s.Create(context.Background(), durableSweepReq())
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminalState(t, fresh); st.State != JobCompleted {
		t.Fatalf("fresh job: %+v", st)
	}
	if b := streamBytes(t, fresh, 0); !bytes.Equal(b, want) {
		t.Errorf("fresh job streamed %d bytes, want %d", len(b), len(want))
	}
	if hits, _ := inj.Counts(faultinject.StoreReplayCorrupt); hits != 2 {
		t.Errorf("streaming a job finished in this process read a log (%d reads, want 2)", hits)
	}
}

// logChanges are three ways a finished job's result log can change behind
// the store's back. "rechecksummed" edits a record and rewrites its own
// checksum, so every line still verifies and only the CRC chain of the
// seal can catch it.
var logChanges = []struct {
	name   string
	change func(t *testing.T, log string)
}{
	{"deleted", func(t *testing.T, log string) {
		if err := os.Remove(log); err != nil {
			t.Fatal(err)
		}
	}},
	{"bitflipped", func(t *testing.T, log string) {
		editLog(t, log, func(raw []byte) { raw[len(raw)/2] ^= 0x04 })
	}},
	{"rechecksummed", func(t *testing.T, log string) {
		editLog(t, log, func(raw []byte) {
			start := bytes.IndexByte(raw, '\n') + 1 // the second record
			end := start + bytes.IndexByte(raw[start:], '\n') + 1
			payload := raw[start+recordCRCLen : end]
			k := bytes.LastIndexAny(payload, "123456789")
			if k < 0 {
				t.Fatal("record has no digit to edit")
			}
			payload[k]--
			copy(raw[start:], fmt.Sprintf("%08x", crc32.Checksum(payload, crcTable)))
		})
	}},
}

// TestColdReplayLogChangedBeforeFirstRead changes a replayed job's log
// between replay and its first read. The read must serve no record, end
// the stream with the error trailer and demote the job to failed/storage,
// and a further restart must still see it failed/storage and serve no
// record.
func TestColdReplayLogChangedBeforeFirstRead(t *testing.T) {
	for _, tc := range logChanges {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			id, _ := seedFinishedJob(t, dir)
			s, j := reopen(t, dir, id, nil)
			log := filepath.Join(dir, id, "results.ndjson")
			tc.change(t, log)

			got := streamBytes(t, j, 0)
			st := j.Status()
			if st.State != JobFailed || st.Reason != ReasonStorage {
				t.Fatalf("first read of a changed log: state=%q reason=%q, want failed/storage", st.State, st.Reason)
			}
			if !strings.Contains(st.Error, "failed verification on first read") {
				t.Errorf("error %q does not name the failed verification", st.Error)
			}
			if want := errorLine(st.Error); !bytes.Equal(got, want) {
				t.Fatalf("stream = %q, want only the error trailer %q", got, want)
			}
			if st.PointsDone != 0 {
				t.Errorf("PointsDone = %d, want 0: no record of a changed log is served", st.PointsDone)
			}
			if fi, err := os.Stat(log); err == nil && fi.Size() != 0 {
				t.Errorf("log holds %d bytes after the demotion, want 0", fi.Size())
			}
			s.mu.Lock()
			held := s.finishedBytes
			s.mu.Unlock()
			if held != 0 {
				t.Errorf("store still accounts %d result bytes after the demotion, want 0", held)
			}
			if err := s.Close(context.Background()); err != nil {
				t.Fatal(err)
			}

			_, j2 := reopen(t, dir, id, nil)
			st2 := j2.Status()
			if st2.State != JobFailed || st2.Reason != ReasonStorage {
				t.Fatalf("demotion not durable: state=%q reason=%q", st2.State, st2.Reason)
			}
			if st2.Error != st.Error {
				t.Errorf("error after a further restart = %q, want the first read's %q: the saved seal must agree with the emptied log", st2.Error, st.Error)
			}
			if got, want := streamBytes(t, j2, 0), errorLine(st2.Error); !bytes.Equal(got, want) {
				t.Fatalf("stream after a further restart = %q, want only the error trailer %q", got, want)
			}
		})
	}
}

// TestColdReplayLogChangedAtReplay makes the same changes to a finished
// job's log before a restart, so replay finds them: the job must be
// failed/storage with no point, stream only the error trailer, have its
// log truncated to nothing, and stay so across one more restart.
func TestColdReplayLogChangedAtReplay(t *testing.T) {
	for _, tc := range logChanges {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			id, _ := seedFinishedJob(t, dir)
			log := filepath.Join(dir, id, "results.ndjson")
			tc.change(t, log)

			for restart := 1; restart <= 2; restart++ {
				s, j := reopen(t, dir, id, nil)
				st := j.Status()
				if st.State != JobFailed || st.Reason != ReasonStorage || st.PointsDone != 0 {
					t.Fatalf("restart %d: state=%q reason=%q points=%d, want failed/storage with 0", restart, st.State, st.Reason, st.PointsDone)
				}
				if !strings.Contains(st.Error, "failed verification on replay") {
					t.Errorf("restart %d: error %q does not name the failed verification", restart, st.Error)
				}
				if got, want := streamBytes(t, j, 0), errorLine(st.Error); !bytes.Equal(got, want) {
					t.Fatalf("restart %d: stream = %q, want only the error trailer %q", restart, got, want)
				}
				if fi, err := os.Stat(log); err == nil && fi.Size() != 0 {
					t.Errorf("restart %d: log holds %d bytes, want 0", restart, fi.Size())
				}
				if err := s.Close(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// editLog rewrites a result log through edit.
func editLog(t *testing.T, log string, edit func(raw []byte)) {
	t.Helper()
	raw, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	edit(raw)
	if err := os.WriteFile(log, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}
