package service

// A restarted durable store replays its job directories in parallel, one
// item of an ordered fold per directory. These tests pin that the result
// is the serial one: the same jobs in the same order, the same states,
// truncations, disk accounting and streams at GOMAXPROCS 1 and 4, and a
// store.replay.corrupt seam whose k-th hit corrupts the k-th non-empty
// result log in directory order.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"dmfb/internal/faultinject"
)

// historyJob is one hand-made job directory of the replay history.
type historyJob struct {
	state   JobState
	reason  string
	errMsg  string
	records int  // golden records written to the log; -1 writes no log
	sealed  int  // the terminal manifest's sealed record count
	tail    bool // a torn half-record after the records
	flip    int  // 1-based record whose line gets a flipped bit; 0 for none
	tmp     bool // a leftover manifest.json.tmp

	// After replay: the state, reason and verified records it keeps.
	wantState  JobState
	wantReason string
	wantKept   int
}

// replayHistory has 14 jobs, so job-10..job-14 sort between job-1 and
// job-2 in directory order.
var replayHistory = []historyJob{
	{state: JobCompleted, records: 16, sealed: 16, wantState: JobCompleted, wantKept: 16},
	{state: JobCompleted, records: 16, sealed: 16, wantState: JobCompleted, wantKept: 16},
	// Running and resumable.
	{state: JobRunning, records: 5, wantState: JobRunning, wantKept: 5},
	// Running with a torn tail from a crash mid-append.
	{state: JobRunning, records: 7, tail: true, wantState: JobRunning, wantKept: 7},
	// Sealed with extra records: a failed job's torn append left two whole
	// records and a torn one past its seal.
	{state: JobFailed, reason: ReasonStorage, errMsg: "persist result record: torn", records: 5, sealed: 3, tail: true,
		wantState: JobFailed, wantReason: ReasonStorage, wantKept: 3},
	// Seal mismatch: record 9 rotted on disk, so the job is demoted and
	// keeps no record: a sealed log serves its sealed records or none, so
	// the 8 records before the rot are not served either.
	{state: JobCompleted, records: 16, sealed: 16, flip: 9, wantState: JobFailed, wantReason: ReasonStorage, wantKept: 0},
	// No log yet: a crash right after the first manifest save.
	{state: JobRunning, records: -1, wantState: JobRunning},
	{state: JobCancelled, records: 4, sealed: 4, wantState: JobCancelled, wantKept: 4},
	{state: JobCompleted, records: 16, sealed: 16, wantState: JobCompleted, wantKept: 16},
	{state: JobCompleted, records: 16, sealed: 16, tmp: true, wantState: JobCompleted, wantKept: 16},
	// Every record committed, but the crash came before the terminal save.
	{state: JobRunning, records: 16, wantState: JobRunning, wantKept: 16},
	{state: JobCompleted, records: 16, sealed: 16, wantState: JobCompleted, wantKept: 16},
	{state: JobFailed, reason: ReasonEvaluation, errMsg: "evaluate point 2: boom", records: 2, sealed: 2,
		wantState: JobFailed, wantReason: ReasonEvaluation, wantKept: 2},
	{state: JobCompleted, records: 16, sealed: 16, wantState: JobCompleted, wantKept: 16},
}

// historyReq is job i's request: durableSweepReq with a seed of its own,
// so resumed jobs share no cache entry and each streams its golden bytes.
func historyReq(i int) SweepRequest {
	req := durableSweepReq()
	req.Seed += int64(i)
	return req
}

// writeReplayHistory writes replayHistory into a new directory as
// job-1..job-14, plus two directories replay must skip: one with no
// manifest and one with a torn manifest. It returns the directory and each
// job's golden lines.
func writeReplayHistory(t *testing.T) (string, [][][]byte) {
	t.Helper()
	dir := t.TempDir()
	created := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	goldens := make([][][]byte, len(replayHistory))
	for i, h := range replayHistory {
		id := fmt.Sprintf("job-%d", i+1)
		lines := goldenLines(runGolden(t, historyReq(i)))
		goldens[i] = lines
		jobDir := filepath.Join(dir, id)
		if err := os.MkdirAll(jobDir, 0o755); err != nil {
			t.Fatal(err)
		}
		m := jobManifest{
			ID: id, State: h.state, Error: h.errMsg, Reason: h.reason,
			TotalPoints: len(lines), CreatedAt: created.Add(time.Duration(i) * time.Second),
			Request: historyReq(i),
		}
		if h.state.terminal() {
			fin := m.CreatedAt.Add(time.Second)
			m.FinishedAt = &fin
			var chain uint32
			for _, line := range lines[:h.sealed] {
				chain = crc32.Update(chain, crcTable, line)
			}
			m.ResultRecords, m.ResultsCRC = h.sealed, fmt.Sprintf("%08x", chain)
		}
		raw, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		writeFile(t, filepath.Join(jobDir, "manifest.json"), append(raw, '\n'))
		if h.tmp {
			writeFile(t, filepath.Join(jobDir, "manifest.json.tmp"), []byte(`{"id":"job-`))
		}
		if h.records < 0 {
			continue
		}
		disk := bytesOfRecords(lines[:h.records], h.flip)
		if h.tail {
			torn := appendRecordLine(nil, lines[h.records])
			disk = append(disk, torn[:len(torn)/2]...)
		}
		writeFile(t, filepath.Join(jobDir, "results.ndjson"), disk)
	}
	if err := os.MkdirAll(filepath.Join(dir, "operator-notes"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "job-15"), 0o755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(dir, "job-15", "manifest.json"), []byte(`{"id":"job-15","sta`))
	return dir, goldens
}

func writeFile(t *testing.T, path string, b []byte) {
	t.Helper()
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// copyStore copies a seeded store directory to a fresh one.
func copyStore(t *testing.T, seed string) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "store")
	if err := os.CopyFS(dir, os.DirFS(seed)); err != nil {
		t.Fatal(err)
	}
	return dir
}

// loadOutcome is what one persister-level replay of a store directory
// produced: every job it recovered, in order, the disk accounting, and
// every file left on disk.
type loadOutcome struct {
	jobs      []string
	diskBytes int64
	files     map[string]string
}

// loadAt replays a copy of seed with a bare persister at GOMAXPROCS procs.
func loadAt(t *testing.T, seed string, procs int, inj *faultinject.Injector) loadOutcome {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	dir := copyStore(t, seed)
	p, err := newFilePersister(dir)
	if err != nil {
		t.Fatal(err)
	}
	p.inject = inj
	defer p.close()
	pjobs, err := p.load()
	if err != nil {
		t.Fatal(err)
	}
	out := loadOutcome{diskBytes: p.diskBytes(), files: make(map[string]string)}
	for _, pj := range pjobs {
		m := pj.manifest
		out.jobs = append(out.jobs, fmt.Sprintf("%s %s/%s kept=%+v lines=%d read=%d err=%q",
			m.ID, m.State, m.Reason, pj.log, pj.res.count(), pj.logBytes, m.Error))
	}
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		out.files[rel] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestParallelReplayLoad replays the history with a bare persister: the
// recovered jobs, the disk accounting and every file left on disk must be
// the same at GOMAXPROCS 1 and 4, and match the history's expectations.
func TestParallelReplayLoad(t *testing.T) {
	seed, goldens := writeReplayHistory(t)

	serial := loadAt(t, seed, 1, nil)
	if len(serial.jobs) != len(replayHistory) {
		t.Fatalf("replay recovered %d jobs, want %d:\n%s", len(serial.jobs), len(replayHistory), strings.Join(serial.jobs, "\n"))
	}
	for i, h := range replayHistory {
		id := fmt.Sprintf("job-%d", i+1)
		want := fmt.Sprintf("%s %s/%s kept={records:%d ", id, h.wantState, h.wantReason, h.wantKept)
		if !strings.HasPrefix(serial.jobs[i], want) {
			t.Errorf("job %d: %s, want prefix %q", i+1, serial.jobs[i], want)
		}
		if h.records < 0 {
			continue
		}
		log := serial.files[filepath.Join(id, "results.ndjson")]
		if want := string(bytesOfRecords(goldens[i][:h.wantKept], h.flip)); log != want {
			t.Errorf("%s: %d log bytes after replay, want the %d of its %d kept records", id, len(log), len(want), h.wantKept)
		}
		if _, ok := serial.files[filepath.Join(id, "manifest.json.tmp")]; ok {
			t.Errorf("%s: leftover manifest.json.tmp survived replay", id)
		}
	}
	if !strings.Contains(serial.jobs[5], "failed verification on replay") {
		t.Errorf("demoted job: %s", serial.jobs[5])
	}
	for round := range 4 {
		if got := loadAt(t, seed, 4, nil); !reflect.DeepEqual(got, serial) {
			t.Fatalf("round %d: GOMAXPROCS 4 replay differs from GOMAXPROCS 1:\n%s\nwant\n%s\ndisk bytes %d, want %d",
				round, strings.Join(got.jobs, "\n"), strings.Join(serial.jobs, "\n"), got.diskBytes, serial.diskBytes)
		}
	}
}

// bytesOfRecords is the on-disk form of records, with one bit flipped in
// the payload of the 1-based record flip (none when flip is 0).
func bytesOfRecords(records [][]byte, flip int) []byte {
	var disk []byte
	for k, line := range records {
		at := len(disk)
		disk = appendRecordLine(disk, line)
		if k+1 == flip {
			disk[at+recordCRCLen+len(line)/2] ^= 0x04
		}
	}
	return disk
}

// TestParallelReplayCorruptSeam arms store.replay.corrupt on its 2nd and
// 8th hits. Whatever the parallelism, those must corrupt the 2nd and 8th
// non-empty result logs in directory order, and nothing else.
func TestParallelReplayCorruptSeam(t *testing.T) {
	seed, _ := writeReplayHistory(t)

	var logs []string // job IDs with a non-empty log, in directory order
	for i, h := range replayHistory {
		if h.records > 0 {
			logs = append(logs, fmt.Sprintf("job-%d", i+1))
		}
	}
	sort.Strings(logs)
	hit := map[string]bool{logs[1]: true, logs[7]: true}

	clean := loadAt(t, seed, 1, nil)
	arm := func() *faultinject.Injector {
		return faultinject.New(3).Arm(faultinject.StoreReplayCorrupt, faultinject.Rule{Hits: []int{2, 8}})
	}
	serial := loadAt(t, seed, 1, arm())
	for i, job := range serial.jobs {
		id := strings.Fields(job)[0]
		if changed := job != clean.jobs[i]; changed != hit[id] {
			t.Errorf("%s changed by the seam: %v, want %v (hits 2 and 8 fall on %s and %s)\n%s",
				id, changed, hit[id], logs[1], logs[7], job)
		}
	}
	for round := range 4 {
		inj := arm()
		got := loadAt(t, seed, 4, inj)
		if !reflect.DeepEqual(got, serial) {
			t.Fatalf("round %d: corrupted GOMAXPROCS 4 replay differs from GOMAXPROCS 1:\n%s\nwant\n%s",
				round, strings.Join(got.jobs, "\n"), strings.Join(serial.jobs, "\n"))
		}
		if hits, fires := inj.Counts(faultinject.StoreReplayCorrupt); hits != uint64(len(logs)) || fires != 2 {
			t.Errorf("round %d: seam hit %d times and fired %d, want %d and 2", round, hits, fires, len(logs))
		}
	}
}

// TestParallelReplayStreams restarts a store over the history at
// GOMAXPROCS 1 and 4 and lets the resumed jobs finish: the jobs, their
// order, states and PointsDone, and every stream must be the same at both,
// and each stream must carry the bytes the job held before the restart.
func TestParallelReplayStreams(t *testing.T) {
	seed, goldens := writeReplayHistory(t)

	var first []string
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			s, err := NewFileJobStore(durableEngine(), JobStoreConfig{}, copyStore(t, seed))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close(context.Background())
			waitStoreReady(t, s)
			s.mu.Lock()
			order := append([]string(nil), s.order...)
			s.mu.Unlock()
			var got []string
			for i, id := range order {
				if want := fmt.Sprintf("job-%d", i+1); id != want {
					t.Fatalf("job %d is %s, want %s (order %v)", i, id, want, order)
				}
				j, err := s.Get(id)
				if err != nil {
					t.Fatal(err)
				}
				st := waitTerminalState(t, j)
				stream := streamBytes(t, j, 0)
				h, lines := replayHistory[i], goldens[i]
				kept := h.wantKept
				wantState, trailer := h.wantState, []byte(nil)
				switch h.wantState {
				case JobRunning:
					kept, wantState = len(lines), JobCompleted
				case JobFailed:
					trailer = errorLine(st.Error)
				case JobCancelled:
					trailer = errorLine("sweep job cancelled")
				}
				if st.State != wantState || st.Reason != h.wantReason || st.PointsDone != kept {
					t.Errorf("%s: %s/%s with %d points, want %s/%s with %d", id, st.State, st.Reason, st.PointsDone, wantState, h.wantReason, kept)
				}
				if want := append(bytes.Join(lines[:kept], nil), trailer...); !bytes.Equal(stream, want) {
					t.Errorf("%s: stream of %d bytes, want the %d it held before the restart", id, len(stream), len(want))
				}
				got = append(got, fmt.Sprintf("%s %s/%s %d %q %x", id, st.State, st.Reason, st.PointsDone, st.Error, crc32.ChecksumIEEE(stream)))
			}
			if len(order) != len(replayHistory) {
				t.Fatalf("store holds %d jobs, want %d", len(order), len(replayHistory))
			}
			if first == nil {
				first = got
			} else if !reflect.DeepEqual(got, first) {
				t.Fatalf("GOMAXPROCS %d:\n%s\nwant\n%s", procs, strings.Join(got, "\n"), strings.Join(first, "\n"))
			}
		})
	}
}
