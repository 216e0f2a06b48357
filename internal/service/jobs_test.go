package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// jobSweepBody is a small but heterogeneous grid: every strategy and both
// defect models, 16 points total.
const jobSweepBody = `{"strategies":["none","local","shifted","hex"],"designs":["DTMB(2,6)"],` +
	`"n_primaries":[40],"ps":[0.9,0.95],"spare_rows":[1],` +
	`"defect_models":["independent","clustered"],"cluster_size":4,"runs":150,"seed":11}`

// slowJobBody is a grid expensive enough to still be running when the test
// cancels it.
const slowJobBody = `{"strategies":["local","hex"],"designs":["DTMB(4,4)"],` +
	`"n_primaries":[100],"p_min":0.90,"p_max":0.99,"p_points":16,` +
	`"defect_models":["independent","clustered"],"runs":200000,"seed":3}`

func testJobMux(t *testing.T, cfg EngineConfig, jcfg JobStoreConfig) (*http.ServeMux, *Store) {
	t.Helper()
	e := NewEngine(cfg)
	jobs := NewJobStore(e, jcfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := jobs.Close(ctx); err != nil {
			t.Errorf("job store close: %v", err)
		}
	})
	return NewMux(e, jobs), jobs
}

func TestJobLifecycleOverHTTP(t *testing.T) {
	mux, jobs := testJobMux(t, EngineConfig{DefaultRuns: 150, CacheSize: 64}, JobStoreConfig{})

	w := doJSON(t, mux, http.MethodPost, "/v2/jobs", jobSweepBody)
	if w.Code != http.StatusAccepted {
		t.Fatalf("create status = %d, body %s", w.Code, w.Body.String())
	}
	if loc := w.Header().Get("Location"); !strings.HasPrefix(loc, "/v2/jobs/") {
		t.Errorf("Location = %q", loc)
	}
	var st JobStatus
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.TotalPoints != 16 {
		t.Fatalf("create status %+v", st)
	}

	j, err := jobs.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	final, err := j.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != JobCompleted || final.PointsDone != 16 || final.FinishedAt == nil {
		t.Fatalf("final status %+v", final)
	}

	w = doJSON(t, mux, http.MethodGet, "/v2/jobs/"+st.ID, "")
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"state":"completed"`) {
		t.Fatalf("status endpoint: %d %s", w.Code, w.Body.String())
	}

	w = doJSON(t, mux, http.MethodGet, "/v2/jobs/"+st.ID+"/results", "")
	if w.Code != http.StatusOK {
		t.Fatalf("results status = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("results Content-Type = %q", ct)
	}
	full := w.Body.Bytes()
	lines := bytes.Split(bytes.TrimSuffix(full, []byte("\n")), []byte("\n"))
	if len(lines) != 16 {
		t.Fatalf("results has %d lines, want 16", len(lines))
	}
	for i, line := range lines {
		var rec SweepRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if rec.Index != i {
			t.Errorf("line %d has index %d", i, rec.Index)
		}
	}

	// A cursor-suffixed read returns exactly the tail of the full stream.
	w = doJSON(t, mux, http.MethodGet, "/v2/jobs/"+st.ID+"/results?cursor=9", "")
	wantTail := bytes.Join(lines[9:], []byte("\n"))
	if got := bytes.TrimSuffix(w.Body.Bytes(), []byte("\n")); !bytes.Equal(got, wantTail) {
		t.Errorf("cursor=9 tail mismatch:\n got %s\nwant %s", got, wantTail)
	}
	// A cursor at the end returns an empty, clean stream.
	w = doJSON(t, mux, http.MethodGet, "/v2/jobs/"+st.ID+"/results?cursor=16", "")
	if w.Code != http.StatusOK || w.Body.Len() != 0 {
		t.Errorf("cursor=16: status %d, %d bytes", w.Code, w.Body.Len())
	}

	for _, tc := range []struct {
		path string
		want int
	}{
		{"/v2/jobs/job-999", http.StatusNotFound},
		{"/v2/jobs/job-999/results", http.StatusNotFound},
		{"/v2/jobs/" + st.ID + "/results?cursor=-1", http.StatusBadRequest},
		{"/v2/jobs/" + st.ID + "/results?cursor=x", http.StatusBadRequest},
	} {
		if w := doJSON(t, mux, http.MethodGet, tc.path, ""); w.Code != tc.want {
			t.Errorf("GET %s = %d, want %d", tc.path, w.Code, tc.want)
		}
	}
}

func TestJobCancellationAndCounters(t *testing.T) {
	mux, _ := testJobMux(t, EngineConfig{DefaultRuns: 150, CacheSize: 64, MaxConcurrent: 1}, JobStoreConfig{})

	// Run one small job to completion for the completed/points counters.
	w := doJSON(t, mux, http.MethodPost, "/v2/jobs", jobSweepBody)
	var done JobStatus
	if err := json.Unmarshal(w.Body.Bytes(), &done); err != nil {
		t.Fatal(err)
	}
	// Streaming the results follows the job to its end.
	w = doJSON(t, mux, http.MethodGet, "/v2/jobs/"+done.ID+"/results", "")
	if w.Code != http.StatusOK {
		t.Fatalf("results: %d", w.Code)
	}

	// Start a slow job and cancel it mid-flight.
	w = doJSON(t, mux, http.MethodPost, "/v2/jobs", slowJobBody)
	if w.Code != http.StatusAccepted {
		t.Fatalf("slow create: %d %s", w.Code, w.Body.String())
	}
	var slow JobStatus
	if err := json.Unmarshal(w.Body.Bytes(), &slow); err != nil {
		t.Fatal(err)
	}
	w = doJSON(t, mux, http.MethodDelete, "/v2/jobs/"+slow.ID, "")
	if w.Code != http.StatusOK {
		t.Fatalf("cancel: %d %s", w.Code, w.Body.String())
	}
	var cancelled JobStatus
	if err := json.Unmarshal(w.Body.Bytes(), &cancelled); err != nil {
		t.Fatal(err)
	}
	if cancelled.State != JobCancelled {
		t.Fatalf("state after DELETE = %q", cancelled.State)
	}
	// Its results stream ends with the cancellation error record.
	w = doJSON(t, mux, http.MethodGet, "/v2/jobs/"+slow.ID+"/results", "")
	if !strings.Contains(w.Body.String(), `"error":"sweep job cancelled"`) {
		t.Errorf("cancelled results missing trailing error: %s", w.Body.String())
	}

	var st StatsResponse
	w = doJSON(t, mux, http.MethodGet, "/v1/stats", "")
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.JobsCompleted != 1 || st.JobsCancelled != 1 || st.JobsActive != 0 {
		t.Errorf("job counters %+v", st)
	}
	if st.PointsEvaluated < 16 {
		t.Errorf("points_evaluated = %d, want >= 16", st.PointsEvaluated)
	}
}

func TestJobStoreCapacityAndEviction(t *testing.T) {
	e := NewEngine(EngineConfig{DefaultRuns: 150, MaxConcurrent: 1})
	jobs := NewJobStore(e, JobStoreConfig{MaxJobs: 1})
	defer jobs.Close(context.Background())

	var slowReq SweepRequest
	if err := json.Unmarshal([]byte(slowJobBody), &slowReq); err != nil {
		t.Fatal(err)
	}
	running, err := jobs.Create(context.Background(), slowReq)
	if err != nil {
		t.Fatal(err)
	}
	// The store is full of running jobs: creation must fail with
	// ErrTooManyJobs, not evict live work.
	if _, err := jobs.Create(context.Background(), slowReq); !errors.Is(err, ErrTooManyJobs) {
		t.Fatalf("create on full store: %v", err)
	}
	running.Cancel()
	// A finished job is evictable; creation now succeeds and the old job is
	// gone.
	replacement, err := jobs.Create(context.Background(), slowReq)
	if err != nil {
		t.Fatalf("create after cancel: %v", err)
	}
	if _, err := jobs.Get(running.ID()); !errors.Is(err, ErrJobNotFound) {
		t.Errorf("evicted job still retrievable: %v", err)
	}
	replacement.Cancel()
}

// TestJobStoreByteBoundEvictsOldestFinished pins the memory bound: finished
// jobs whose combined encoded results exceed MaxResultBytes are evicted
// oldest-first as newer jobs finish, so cheap huge-grid jobs cannot pin
// unbounded heap.
func TestJobStoreByteBoundEvictsOldestFinished(t *testing.T) {
	e := NewEngine(EngineConfig{DefaultRuns: 100})
	// Each closed-form job below buffers ~2 KB; a 5 KB bound retains at
	// most two finished jobs' results.
	jobs := NewJobStore(e, JobStoreConfig{MaxResultBytes: 5 << 10})
	defer jobs.Close(context.Background())

	req := SweepRequest{Strategies: []string{"none"}, NPrimaries: []int{100}, PPoints: 11, Seed: 1}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var ids []string
	for i := 0; i < 4; i++ {
		j, err := jobs.Create(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID())
	}
	if _, err := jobs.Get(ids[0]); !errors.Is(err, ErrJobNotFound) {
		t.Errorf("oldest finished job survived the byte bound: %v", err)
	}
	if _, err := jobs.Get(ids[len(ids)-1]); err != nil {
		t.Errorf("newest job evicted: %v", err)
	}
	jobs.mu.Lock()
	held := jobs.finishedBytes
	jobs.mu.Unlock()
	if held > 5<<10 {
		t.Errorf("finishedBytes %d exceeds the 5 KiB bound", held)
	}
}

// TestJobResumeByteIdentityAcrossWorkers is the acceptance property of the
// resumable stream: a results stream interrupted at any cursor and resumed
// concatenates to the exact bytes of an uninterrupted stream, and those
// bytes are identical across worker counts and admission widths.
func TestJobResumeByteIdentityAcrossWorkers(t *testing.T) {
	var req SweepRequest
	if err := json.Unmarshal([]byte(jobSweepBody), &req); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	var fullRef []byte
	for _, cfg := range []EngineConfig{
		{DefaultRuns: 150, Workers: 1, MaxConcurrent: 1},
		{DefaultRuns: 150, Workers: 4, MaxConcurrent: 4},
	} {
		jobs := NewJobStore(NewEngine(cfg), JobStoreConfig{})
		j, err := jobs.Create(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		var full bytes.Buffer
		end, err := j.StreamResults(ctx, 0, func(line []byte) error {
			full.Write(line)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if fullRef == nil {
			fullRef = append([]byte(nil), full.Bytes()...)
		} else if !bytes.Equal(fullRef, full.Bytes()) {
			t.Fatalf("stream bytes differ across engine config %+v", cfg)
		}

		errDrop := errors.New("connection dropped")
		for k := 0; k <= end; k++ {
			var got bytes.Buffer
			wrote := 0
			// Interrupt: the "connection" dies after k records.
			cursor, err := j.StreamResults(ctx, 0, func(line []byte) error {
				if wrote == k {
					return errDrop
				}
				wrote++
				got.Write(line)
				return nil
			})
			if k < end && !errors.Is(err, errDrop) {
				t.Fatalf("k=%d: interrupt not surfaced: %v", k, err)
			}
			if cursor != k {
				t.Fatalf("k=%d: cursor after interrupt = %d", k, cursor)
			}
			// Resume at the reported cursor and drain to the end.
			if _, err := j.StreamResults(ctx, cursor, func(line []byte) error {
				got.Write(line)
				return nil
			}); err != nil {
				t.Fatalf("k=%d: resume: %v", k, err)
			}
			if !bytes.Equal(got.Bytes(), fullRef) {
				t.Fatalf("k=%d: interrupted+resumed bytes differ from uninterrupted stream", k)
			}
		}
		if err := jobs.Close(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

// gatedPersister is an in-memory persister whose creation saves (running
// manifests) announce their job on entered and then wait on release, or
// fail with failErr when it is set. With hold set, only that job's
// creation save is held.
type gatedPersister struct {
	nullPersister
	entered chan string
	release chan struct{}
	failErr error
	hold    string
}

func (p *gatedPersister) saveManifest(m jobManifest) error {
	if m.State != JobRunning || (p.hold != "" && m.ID != p.hold) {
		return nil
	}
	if p.failErr != nil {
		return p.failErr
	}
	p.entered <- m.ID
	<-p.release
	return nil
}

// returnsPromptly fails the test if f does not return within a few seconds.
func returnsPromptly(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s blocked behind a held manifest save or artifact removal", what)
	}
}

// TestCreateReserveSavesOutsideLock holds Creates inside their manifest
// save: Get, Status and Ready must not wait behind them, and Creates at
// MaxJobs must count the reserved jobs, so the store never retains more
// than MaxJobs jobs.
func TestCreateReserveSavesOutsideLock(t *testing.T) {
	const maxJobs = 4
	p := &gatedPersister{entered: make(chan string, 16), release: make(chan struct{})}
	s := newStore(durableEngine(), JobStoreConfig{MaxJobs: maxJobs}, p)
	s.ready.Store(true)
	t.Cleanup(func() { s.Close(context.Background()) })
	// Cleanups run last first: every held save is let go before Close.
	var releaseOnce sync.Once
	releaseAll := func() { releaseOnce.Do(func() { close(p.release) }) }
	t.Cleanup(releaseAll)
	req := durableSweepReq()

	type created struct {
		j   *Job
		err error
	}
	results := make(chan created, 16)
	create := func(seed int64) {
		r := req
		r.Seed = seed
		go func() {
			j, err := s.Create(context.Background(), r)
			results <- created{j, err}
		}()
	}

	// A first job, let through its save and finished.
	create(1)
	<-p.entered
	p.release <- struct{}{}
	first := <-results
	if first.err != nil {
		t.Fatal(first.err)
	}
	waitTerminalState(t, first.j)

	// A second Create held inside its save holds up no reader.
	create(2)
	<-p.entered
	returnsPromptly(t, "Get", func() {
		if _, err := s.Get(first.j.ID()); err != nil {
			t.Errorf("Get of a finished job: %v", err)
		}
	})
	returnsPromptly(t, "Status", func() { first.j.Status() })
	returnsPromptly(t, "Ready", func() {
		if !s.Ready() {
			t.Error("store not ready while a Create saves")
		}
	})

	// Six more Creates: two reserve the remaining places, a third evicts
	// the settled first job for its own, and the last three find every
	// place reserved by a job still saving.
	for seed := int64(3); seed <= 8; seed++ {
		create(seed)
	}
	for range 3 {
		if r := <-results; !errors.Is(r.err, ErrTooManyJobs) {
			t.Fatalf("Create over the bound: %v, want ErrTooManyJobs", r.err)
		}
	}
	for range 3 {
		<-p.entered
	}
	s.mu.Lock()
	held, pending := len(s.jobs), s.pending
	s.mu.Unlock()
	if held != 0 || pending != maxJobs {
		t.Errorf("store holds %d jobs and %d reservations, want 0 and %d", held, pending, maxJobs)
	}

	releaseAll()
	for range maxJobs {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		if st := waitTerminalState(t, r.j); st.State != JobCompleted {
			t.Fatalf("job %s: %+v", r.j.ID(), st)
		}
	}
	s.mu.Lock()
	held, pending = len(s.jobs), s.pending
	s.mu.Unlock()
	if held != maxJobs || pending != 0 {
		t.Errorf("store holds %d jobs and %d reservations, want %d and 0", held, pending, maxJobs)
	}
	if _, err := s.Get(first.j.ID()); !errors.Is(err, ErrJobNotFound) {
		t.Errorf("evicted first job: %v, want ErrJobNotFound", err)
	}
}

// TestCreateReserveReleasedOnFailedSave: a Create whose manifest save
// fails gives its reservation back, so the place is free again and Close
// does not wait for a job that never started.
func TestCreateReserveReleasedOnFailedSave(t *testing.T) {
	p := &gatedPersister{failErr: errors.New("disk full")}
	s := newStore(durableEngine(), JobStoreConfig{MaxJobs: 1}, p)
	s.ready.Store(true)
	for range 2 {
		if _, err := s.Create(context.Background(), durableSweepReq()); err == nil || !strings.Contains(err.Error(), "disk full") {
			t.Fatalf("Create with a failing save: %v, want the save's error", err)
		}
	}
	s.mu.Lock()
	held, pending, ordered := len(s.jobs), s.pending, len(s.order)
	s.mu.Unlock()
	if held != 0 || pending != 0 || ordered != 0 {
		t.Errorf("store holds %d jobs, %d reservations and %d ordered IDs after failed saves, want none", held, pending, ordered)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Errorf("Close after failed saves: %v", err)
	}
}

// TestCreateReserveEvictsInCreationOrder: a job takes its place in the
// eviction order when its ID is reserved, not when its manifest save
// returns. A job whose save finished last is still evicted first, as it is
// after a restart, which orders the replayed jobs by ID.
func TestCreateReserveEvictsInCreationOrder(t *testing.T) {
	p := &gatedPersister{entered: make(chan string, 1), release: make(chan struct{}), hold: "job-1"}
	s := newStore(durableEngine(), JobStoreConfig{MaxJobs: 2}, p)
	s.ready.Store(true)
	t.Cleanup(func() { s.Close(context.Background()) })
	var releaseOnce sync.Once
	releaseAll := func() { releaseOnce.Do(func() { close(p.release) }) }
	t.Cleanup(releaseAll)
	ctx := context.Background()
	req := durableSweepReq()

	// job-1 is held inside its save while job-2 is created and finishes.
	firstc := make(chan *Job, 1)
	go func() {
		j, err := s.Create(ctx, req)
		if err != nil {
			t.Error(err)
		}
		firstc <- j
	}()
	if id := <-p.entered; id != "job-1" {
		t.Fatalf("held save is %s, want job-1", id)
	}
	req.Seed++
	second, err := s.Create(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminalState(t, second)
	releaseAll()
	first := <-firstc
	if first == nil {
		t.FailNow()
	}
	waitTerminalState(t, first)

	// The store is full of settled jobs: a third evicts job-1.
	req.Seed++
	third, err := s.Create(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(first.ID()); !errors.Is(err, ErrJobNotFound) {
		t.Errorf("oldest job %s: %v, want ErrJobNotFound", first.ID(), err)
	}
	if _, err := s.Get(second.ID()); err != nil {
		t.Errorf("newer job %s: %v, want it kept", second.ID(), err)
	}
	s.mu.Lock()
	order := append([]string(nil), s.order...)
	s.mu.Unlock()
	if want := []string{second.ID(), third.ID()}; !slices.Equal(order, want) {
		t.Errorf("eviction order %v, want %v", order, want)
	}
	waitTerminalState(t, third)
}

// removeGatedPersister is an in-memory persister whose removals of an
// evicted job's artifacts announce the job on removing and then wait on
// release.
type removeGatedPersister struct {
	nullPersister
	removing chan string
	release  chan struct{}
}

func (p *removeGatedPersister) remove(id string) error {
	p.removing <- id
	<-p.release
	return nil
}

// TestEvictRemovesArtifactsOutsideLock holds the removal of an evicted
// job's artifacts, once evicted for a new Create's place at MaxJobs and
// once for the byte bound when a job settles: Get and Ready must not wait
// behind it.
func TestEvictRemovesArtifactsOutsideLock(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  JobStoreConfig
	}{
		{"reserve at MaxJobs", JobStoreConfig{MaxJobs: 1}},
		{"settle over MaxResultBytes", JobStoreConfig{MaxResultBytes: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := &removeGatedPersister{removing: make(chan string, 4), release: make(chan struct{})}
			s := newStore(durableEngine(), tc.cfg, p)
			s.ready.Store(true)
			t.Cleanup(func() { s.Close(context.Background()) })
			var releaseOnce sync.Once
			releaseAll := func() { releaseOnce.Do(func() { close(p.release) }) }
			t.Cleanup(releaseAll)
			ctx := context.Background()
			req := durableSweepReq()

			first, err := s.Create(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			waitTerminalState(t, first)
			req.Seed++
			secondc := make(chan *Job, 1)
			go func() {
				j, err := s.Create(ctx, req)
				if err != nil {
					t.Error(err)
				}
				secondc <- j
			}()
			if id := <-p.removing; id != first.ID() {
				t.Fatalf("removing %s, want the first job %s", id, first.ID())
			}
			returnsPromptly(t, "Get", func() {
				if _, err := s.Get(first.ID()); !errors.Is(err, ErrJobNotFound) {
					t.Errorf("Get of the evicted job: %v, want ErrJobNotFound", err)
				}
			})
			returnsPromptly(t, "Ready", func() {
				if !s.Ready() {
					t.Error("store not ready while an eviction removes artifacts")
				}
			})

			releaseAll()
			second := <-secondc
			if second == nil {
				t.FailNow()
			}
			if st := waitTerminalState(t, second); st.State != JobCompleted {
				t.Fatalf("job %s: %+v", second.ID(), st)
			}
		})
	}
}
