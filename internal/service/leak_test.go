package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestSweepStreamCancelAndShutdownJoinsAllGoroutines starts a long /v1/sweep
// stream over a real server, cancels the request mid-stream, shuts the
// server down, and asserts via before/after goroutine accounting that every
// sweep worker, Monte-Carlo worker, and server goroutine joined. This is the
// end-to-end version of the sweep package's cancellation-leak test: it
// covers the handler, the admission semaphore, and the HTTP plumbing too.
func TestSweepStreamCancelAndShutdownJoinsAllGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	srv, err := NewServer(ServerConfig{
		Addr:   "127.0.0.1:0",
		Engine: EngineConfig{DefaultRuns: 200000, Workers: 4, MaxConcurrent: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()

	// A grid long enough that the stream is alive when we cancel: 64 points
	// at 200k runs each.
	body := `{"strategies":["local","hex"],"designs":["DTMB(4,4)"],` +
		`"n_primaries":[100],"p_min":0.90,"p_max":0.99,"p_points":16,` +
		`"defect_models":["independent","clustered"],"seed":3}`
	ctx, cancel := context.WithCancel(context.Background())
	client := &http.Client{Transport: &http.Transport{}}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+srv.Addr()+"/v1/sweep", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	// Wait for the first record so the sweep is demonstrably in flight, then
	// cancel the request while later points are still being evaluated.
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("stream ended before first record: %v", sc.Err())
	}
	cancel()
	resp.Body.Close()
	client.CloseIdleConnections()

	shutdownCtx, stop := context.WithTimeout(context.Background(), 10*time.Second)
	defer stop()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}

	// Goroutine counts settle asynchronously (connection teardown, worker
	// joins); poll with a deadline before declaring a leak.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before+1 { // +1 tolerates runtime bookkeeping goroutines
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines before %d, after %d; stacks:\n%s",
				before, after, stackSummary(buf[:n]))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestJobShutdownDrainsWithoutLeaks starts a long-running /v2 sweep job
// plus a live results-stream follower, shuts the server down mid-job, and
// asserts via goroutine accounting that the job goroutine, its Monte-Carlo
// workers, and the follower's handler all joined: graceful shutdown cancels
// running jobs rather than leaking them.
func TestJobShutdownDrainsWithoutLeaks(t *testing.T) {
	before := runtime.NumGoroutine()

	srv, err := NewServer(ServerConfig{
		Addr:   "127.0.0.1:0",
		Engine: EngineConfig{DefaultRuns: 200000, Workers: 4, MaxConcurrent: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()

	body := `{"strategies":["local","hex"],"designs":["DTMB(4,4)"],` +
		`"n_primaries":[100],"p_min":0.90,"p_max":0.99,"p_points":16,` +
		`"defect_models":["independent","clustered"],"seed":3}`
	resp, err := http.Post("http://"+srv.Addr()+"/v2/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create job: status %d, err %v, body %s", resp.StatusCode, err, raw)
	}
	var st JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}

	// Follow the job's result stream so shutdown also has a live streaming
	// handler to unblock. Wait for the first record so the follow is
	// demonstrably attached.
	streamReady := make(chan struct{})
	streamDone := make(chan struct{})
	go func() {
		defer close(streamDone)
		resp, err := http.Get("http://" + srv.Addr() + "/v2/jobs/" + st.ID + "/results")
		if err != nil {
			close(streamReady)
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		first := true
		for sc.Scan() {
			if first {
				close(streamReady)
				first = false
			}
		}
		if first {
			close(streamReady)
		}
	}()
	<-streamReady

	shutdownCtx, stop := context.WithTimeout(context.Background(), 20*time.Second)
	defer stop()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
	<-streamDone

	if st := srv.Engine().Stats(); st.JobsActive != 0 || st.JobsCancelled != 1 {
		t.Errorf("job counters after shutdown: active %d, cancelled %d", st.JobsActive, st.JobsCancelled)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before+1 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines before %d, after %d; stacks:\n%s",
				before, after, stackSummary(buf[:n]))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// stackSummary trims a full stack dump to its goroutine headers, enough to
// identify a leaked worker without drowning the test log.
func stackSummary(dump []byte) string {
	var b bytes.Buffer
	for _, block := range bytes.Split(dump, []byte("\n\n")) {
		lines := bytes.SplitN(block, []byte("\n"), 3)
		for i := 0; i < len(lines) && i < 2; i++ {
			fmt.Fprintf(&b, "%s\n", lines[i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
