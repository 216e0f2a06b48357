package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// heldFirstAppend is a file persister whose first result append waits on
// release; it records the size of every run appended.
type heldFirstAppend struct {
	*filePersister
	entered, release chan struct{}
	mu               sync.Mutex
	runs             []int
}

func (p *heldFirstAppend) appendResult(id string, res resultBuf, from int) error {
	p.mu.Lock()
	p.runs = append(p.runs, res.count()-from)
	first := len(p.runs) == 1
	p.mu.Unlock()
	if first {
		close(p.entered)
		<-p.release
	}
	return p.filePersister.appendResult(id, res, from)
}

// sweepPointsTimed sums the engine's sweep-point histogram counts: the
// points evaluated so far, committed or not.
func sweepPointsTimed(t *testing.T, e *Engine) int {
	t.Helper()
	w := httptest.NewRecorder()
	e.Registry().Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	n := 0
	for _, line := range strings.Split(w.Body.String(), "\n") {
		if fields := strings.Fields(line); len(fields) == 2 && strings.HasPrefix(fields[0], "dmfb_sweep_point_duration_seconds_count{") {
			v, err := strconv.Atoi(fields[1])
			if err != nil {
				t.Fatalf("unparseable metric line %q: %v", line, err)
			}
			n += v
		}
	}
	return n
}

// TestGroupCommitLocalJob holds a local job's first durable append until
// every other point has finished: those records must commit together, in
// one more append. The result log, its seal and the stream must equal the
// in-memory golden.
func TestGroupCommitLocalJob(t *testing.T) {
	req := durableSweepReq() // 16 points
	golden := runGolden(t, req)
	dir := t.TempDir()
	fp, err := newFilePersister(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := &heldFirstAppend{filePersister: fp, entered: make(chan struct{}), release: make(chan struct{})}
	release := sync.OnceFunc(func() { close(p.release) })
	t.Cleanup(release)
	e := durableEngine()
	s := newStore(e, JobStoreConfig{}, p)
	s.ready.Store(true)
	j, err := s.Create(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	<-p.entered
	deadline := time.Now().Add(10 * time.Second)
	for sweepPointsTimed(t, e) < 16 {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 16 points evaluated behind the held append", sweepPointsTimed(t, e))
		}
		time.Sleep(time.Millisecond)
	}
	release()
	if st := waitTerminalState(t, j); st.State != JobCompleted {
		t.Fatalf("job: %+v", st)
	}
	if got := streamBytes(t, j, 0); !bytes.Equal(got, golden) {
		t.Fatalf("stream differs from the in-memory golden (%d vs %d bytes)", len(got), len(golden))
	}
	// Closing joins the job's goroutine, which writes the sealed manifest.
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	runs := p.runs
	p.mu.Unlock()
	if len(runs) != 2 || runs[0]+runs[1] != 16 {
		t.Fatalf("appended runs %v, want the records finished behind the held append in one more", runs)
	}

	var wantLog []byte
	var chain uint32
	lines := bytes.SplitAfter(golden, []byte("\n"))
	lines = lines[:len(lines)-1] // the empty tail after the last newline
	for _, line := range lines {
		wantLog = appendRecordLine(wantLog, line)
		chain = crc32.Update(chain, crcTable, line)
	}
	gotLog, err := os.ReadFile(filepath.Join(dir, j.ID(), "results.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotLog, wantLog) {
		t.Errorf("result log differs from the golden's records (%d vs %d bytes)", len(gotLog), len(wantLog))
	}
	raw, err := os.ReadFile(filepath.Join(dir, j.ID(), "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m jobManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("%08x", chain); m.ResultRecords != len(lines) || m.ResultsCRC != want {
		t.Errorf("manifest seal %d records / crc %s, want %d / %s", m.ResultRecords, m.ResultsCRC, len(lines), want)
	}
}
