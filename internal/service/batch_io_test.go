package service

// The job log's I/O is batched at both ends: a distributed runner hands the
// store contiguous runs of records, each committed with one write and one
// fsync, and the result stream flushes once per wake instead of once per
// record. These tests pin both ends without the dispatch package, through a
// runner that emits a locally evaluated grid in runs of chosen sizes.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dmfb/internal/faultinject"
)

// runsRunner is a DistributedRunner that evaluates the plan on its own
// engine and emits the records in runs of sizes[i] (the last size repeats).
// With gate set it waits for a value on gate before every run after the
// first; onEmitErr, when set, runs after a failed emit.
type runsRunner struct {
	engine    *Engine
	sizes     []int
	gate      chan struct{}
	onEmitErr func()
}

func (r *runsRunner) RunJob(ctx context.Context, _ string, plan *SweepPlan, _ SweepRequest, start int, emit func([]SweepRecord) error) error {
	var recs []SweepRecord
	if err := r.engine.RunSweepRange(ctx, plan, start, plan.NumPoints(), func(run []SweepRecord) error {
		for _, rec := range run {
			rec.Cached = false // as the coordinator normalizes worker records
			recs = append(recs, rec)
		}
		return nil
	}); err != nil {
		return err
	}
	for i := 0; len(recs) > 0; i++ {
		if i > 0 && r.gate != nil {
			select {
			case <-r.gate:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		n := min(r.sizes[min(i, len(r.sizes)-1)], len(recs))
		if err := emit(recs[:n]); err != nil {
			if r.onEmitErr != nil {
				r.onEmitErr()
			}
			return err
		}
		recs = recs[n:]
	}
	return nil
}

// goldenLines splits a stream into its newline-terminated lines.
func goldenLines(stream []byte) [][]byte {
	lines := bytes.SplitAfter(stream, []byte("\n"))
	if len(lines) > 0 && len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	return lines
}

// TestChaosStoreAppendTornRun tears the second append of a distributed job,
// a five-record run: half the run's bytes reach the log and the write
// errors. The job must fail with reason storage like a torn single-record
// append. On restart, replay truncates the torn tail to the last verified
// record. If the terminal manifest landed, the job stays failed and serves
// the verified prefix; if the process died before it (crash), the job
// resumes from that prefix to a stream byte-identical to the golden one.
func TestChaosStoreAppendTornRun(t *testing.T) {
	req := durableSweepReq()
	golden := runGolden(t, req)
	lines := goldenLines(golden)
	req.Distributed = true
	for _, crash := range []bool{false, true} {
		t.Run(fmt.Sprintf("crash=%v", crash), func(t *testing.T) {
			dir := t.TempDir()
			inj := faultinject.New(11).Arm(faultinject.StoreAppendWrite, faultinject.Rule{Hits: []int{2}})
			runner := &runsRunner{engine: durableEngine(), sizes: []int{3, 5}}
			e := durableEngine()
			s, err := NewFileJobStore(e, JobStoreConfig{Runner: runner, Inject: inj}, dir)
			if err != nil {
				t.Fatal(err)
			}
			if crash {
				// Die between the torn write and the terminal manifest.
				runner.onEmitErr = s.persist.(*filePersister).crashForTest
			}
			waitStoreReady(t, s)
			j, err := s.Create(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			st := waitTerminalState(t, j)
			if st.State != JobFailed || st.Reason != ReasonStorage {
				t.Fatalf("torn run: state=%q reason=%q, want failed/storage (%+v)", st.State, st.Reason, st)
			}
			if !strings.Contains(st.Error, "persist result record") {
				t.Errorf("error %q does not name the failed persist", st.Error)
			}
			if st.PointsDone != 3 {
				t.Errorf("PointsDone = %d, want 3: no record of the torn run may be published", st.PointsDone)
			}
			if v := metricValue(t, e, "dmfb_store_write_errors_total"); v < 1 {
				t.Errorf("dmfb_store_write_errors_total = %v, want >= 1", v)
			}
			if err := s.Close(context.Background()); err != nil {
				t.Fatal(err)
			}
			logPath := filepath.Join(dir, j.ID(), "results.ndjson")
			torn, err := os.ReadFile(logPath)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.HasSuffix(torn, []byte("\n")) {
				t.Fatal("the injected torn write left no partial record to truncate")
			}

			// Restart without chaos.
			s2, err := NewFileJobStore(durableEngine(), JobStoreConfig{Runner: &runsRunner{engine: durableEngine(), sizes: []int{4}}}, dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close(context.Background())
			waitStoreReady(t, s2)
			j2, err := s2.Get(j.ID())
			if err != nil {
				t.Fatal(err)
			}
			verified := bytes.LastIndexByte(torn, '\n') + 1
			if crash {
				st2 := waitTerminalState(t, j2)
				if st2.State != JobCompleted {
					t.Fatalf("resumed job: %+v", st2)
				}
				if got := streamBytes(t, j2, 0); !bytes.Equal(got, golden) {
					t.Fatalf("resumed stream differs from golden: %d bytes vs %d", len(got), len(golden))
				}
				assertCursorSuffixes(t, j2, golden)
				return
			}
			st2 := j2.Status()
			if st2.State != JobFailed || st2.Reason != ReasonStorage {
				t.Fatalf("replayed torn job: state=%q reason=%q, want failed/storage", st2.State, st2.Reason)
			}
			after, err := os.ReadFile(logPath)
			if err != nil {
				t.Fatal(err)
			}
			// The failed job's manifest sealed the 3 committed records:
			// whole records of the torn run's written half verify, but lie
			// past the seal, so replay truncates them away with the torn
			// tail.
			if bytes.Count(torn[:verified], []byte("\n")) <= 3 {
				t.Fatal("the torn write left no whole record past the seal")
			}
			sealed := len(bytes.Join(goldenLines(torn)[:3], nil))
			if !bytes.Equal(after, torn[:sealed]) {
				t.Errorf("replay left %d log bytes, want the %d sealed of %d", len(after), sealed, len(torn))
			}
			n := st2.PointsDone
			if n != 3 {
				t.Fatalf("PointsDone = %d after replay, want the 3 sealed records", n)
			}
			got := streamBytes(t, j2, 0)
			if prefix := bytes.Join(lines[:n], nil); !bytes.HasPrefix(got, prefix) || !bytes.Contains(got[len(prefix):], []byte(`"error"`)) {
				t.Error("replayed stream is not the golden prefix followed by the error line")
			}
		})
	}
}

// jobFlushes reads the job stream's flush counter.
func jobFlushes(t *testing.T, e *Engine) float64 {
	t.Helper()
	return metricValue(t, e, `dmfb_stream_flushes_total{stream="job"}`)
}

// TestStreamFlushOncePerWake streams a finished 16-record job over HTTP: the
// whole stream must cost at most two flushes, not one per record, and carry
// the same bytes as StreamResults, from the start and from a cursor.
func TestStreamFlushOncePerWake(t *testing.T) {
	e := durableEngine()
	jobs := NewJobStore(e, JobStoreConfig{})
	defer jobs.Close(context.Background())
	srv := httptest.NewServer(NewHandler(e, jobs, nil))
	defer srv.Close()
	j, err := jobs.Create(context.Background(), durableSweepReq())
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminalState(t, j); st.State != JobCompleted || st.PointsDone != 16 {
		t.Fatalf("job: %+v", st)
	}
	want := streamBytes(t, j, 0)
	for _, cursor := range []int{0, 5} {
		before := jobFlushes(t, e)
		resp, err := http.Get(fmt.Sprintf("%s/v2/jobs/%s/results?cursor=%d", srv.URL, j.ID(), cursor))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if wantSuffix := bytes.Join(goldenLines(want)[cursor:], nil); !bytes.Equal(got, wantSuffix) {
			t.Fatalf("cursor %d: HTTP stream differs from StreamResults (%d vs %d bytes)", cursor, len(got), len(wantSuffix))
		}
		if d := jobFlushes(t, e) - before; d < 1 || d > 2 {
			t.Errorf("cursor %d: streaming %d records took %v flushes, want 1 or 2", cursor, 16-cursor, d)
		}
	}
}

// TestStreamFlushFollowsCommittedRuns follows a running distributed job
// whose runner commits four-record runs one at a time: each run must reach
// the client while the job is still running, not only when it ends.
func TestStreamFlushFollowsCommittedRuns(t *testing.T) {
	req := durableSweepReq()
	golden := runGolden(t, req)
	req.Distributed = true
	e := durableEngine()
	gate := make(chan struct{})
	runner := &runsRunner{engine: durableEngine(), sizes: []int{4}, gate: gate}
	jobs := NewJobStore(e, JobStoreConfig{Runner: runner})
	defer jobs.Close(context.Background())
	srv := httptest.NewServer(NewHandler(e, jobs, nil))
	defer srv.Close()
	j, err := jobs.Create(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	before := jobFlushes(t, e)
	cl := &http.Client{Timeout: 60 * time.Second}
	resp, err := cl.Get(srv.URL + "/v2/jobs/" + j.ID() + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	r := bufio.NewReader(resp.Body)
	var got bytes.Buffer
	for run := 0; run < 4; run++ {
		if run > 0 {
			gate <- struct{}{}
		}
		for i := 0; i < 4; i++ {
			line, err := r.ReadBytes('\n')
			if err != nil {
				t.Fatalf("run %d: reading record %d: %v", run, i, err)
			}
			got.Write(line)
		}
		// The runner is parked on the gate (or done, after the last run):
		// this run arrived on its own flush.
		if st := j.Status(); run < 3 && st.State != JobRunning {
			t.Fatalf("run %d arrived after the job ended: %+v", run, st)
		}
	}
	rest, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	got.Write(rest)
	if !bytes.Equal(got.Bytes(), golden) {
		t.Fatalf("followed stream differs from golden: %d bytes vs %d", got.Len(), len(golden))
	}
	// One flush per wake that wrote lines: one per run, and none for the
	// job's end when the last run was already flushed.
	if d := jobFlushes(t, e) - before; d != 4 {
		t.Errorf("following 4 runs took %v flushes, want 4", d)
	}
}
