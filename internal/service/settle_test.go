package service

// A settled job keeps only what it serves: its records in one exact buffer,
// no plan, no encoder, and no context registered with the store's. These
// tests pin that for local, distributed and replayed jobs, and bound the
// heap a long run of short jobs leaves behind.

import (
	"bytes"
	"context"
	"runtime"
	"testing"
)

// heldResults snapshots what a job holds once it has settled.
func heldResults(j *Job) (res resultBuf, plan *SweepPlan, enc bool, next resultBuf) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.res, j.plan, j.enc != nil, j.next
}

// assertSettledExact checks that a settled job holds its records in one
// buffer with no spare capacity, one end offset per record and nothing of
// its plan or encoder, and that it still serves golden.
func assertSettledExact(t *testing.T, j *Job, golden []byte) {
	t.Helper()
	st := j.Status()
	res, plan, enc, next := heldResults(j)
	if cap(res.buf) != len(res.buf) || cap(res.ends) != len(res.ends) {
		t.Errorf("buffer len %d cap %d, ends len %d cap %d; want no spare capacity",
			len(res.buf), cap(res.buf), len(res.ends), cap(res.ends))
	}
	if res.count() != st.PointsDone || st.PointsDone != st.TotalPoints {
		t.Errorf("%d end offsets, PointsDone %d of %d; want one per record of a whole grid", res.count(), st.PointsDone, st.TotalPoints)
	}
	if !bytes.Equal(res.buf, golden) {
		t.Errorf("buffer holds %d bytes, want the %d golden stream bytes", len(res.buf), len(golden))
	}
	if plan != nil || enc || next.buf != nil || next.ends != nil {
		t.Errorf("settled job keeps plan %v, encoder %v, committer buffer of %d bytes; want none", plan != nil, enc, len(next.buf))
	}
	if got := streamBytes(t, j, 0); !bytes.Equal(got, golden) {
		t.Errorf("stream after settling: %d bytes, want the %d golden bytes", len(got), len(golden))
	}
}

// TestSettledJobHoldsExactBuffer: a local job, a distributed job committed
// in runs, and a replayed job after its first read each hold one exact
// buffer of the golden stream's bytes and no plan.
func TestSettledJobHoldsExactBuffer(t *testing.T) {
	golden := runGolden(t, durableSweepReq())
	t.Run("local", func(t *testing.T) {
		s := NewJobStore(durableEngine(), JobStoreConfig{})
		defer s.Close(context.Background())
		j, err := s.Create(context.Background(), durableSweepReq())
		if err != nil {
			t.Fatal(err)
		}
		if st := waitTerminalState(t, j); st.State != JobCompleted {
			t.Fatalf("local job: %+v", st)
		}
		assertSettledExact(t, j, golden)
	})
	t.Run("distributed", func(t *testing.T) {
		runner := &runsRunner{engine: durableEngine(), sizes: []int{3, 5}}
		s := NewJobStore(durableEngine(), JobStoreConfig{Runner: runner})
		defer s.Close(context.Background())
		req := durableSweepReq()
		req.Distributed = true
		j, err := s.Create(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if st := waitTerminalState(t, j); st.State != JobCompleted {
			t.Fatalf("distributed job: %+v", st)
		}
		assertSettledExact(t, j, golden)
	})
	t.Run("replayed", func(t *testing.T) {
		dir := t.TempDir()
		id, want := seedFinishedJob(t, dir)
		if !bytes.Equal(want, golden) {
			t.Fatal("seeded job's stream differs from the golden one")
		}
		_, j := reopen(t, dir, id, nil)
		streamBytes(t, j, 0) // the first read loads the log
		assertSettledExact(t, j, golden)
	})
}

// TestSettledJobReleasesContext: an ended job releases its context from the
// store's and keeps no cancel func or fresh update channel. Run through an
// in-memory store that retains 4, 5,000 short jobs must leave the live heap
// flat however many have come and gone. Retained, each settled job must
// hold no cancel func and share closedUpdate, and 1,000 of them must cost
// under 1,250 B of live heap each; one that kept its context, cancel func
// and a fresh channel cost about 1,430 B.
func TestSettledJobReleasesContext(t *testing.T) {
	req := SweepRequest{Strategies: []string{"none"}, NPrimaries: []int{100}, Ps: []float64{0.9}, Seed: 1}
	runJobs := func(t *testing.T, s *Store, n int) []*Job {
		jobs := make([]*Job, n)
		for i := range jobs {
			j, err := s.Create(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if st := waitTerminalState(t, j); st.State != JobCompleted {
				t.Fatalf("job ended %+v", st)
			}
			jobs[i] = j
		}
		return jobs
	}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	t.Run("evicted", func(t *testing.T) {
		s := NewJobStore(NewEngine(EngineConfig{DefaultRuns: 100}), JobStoreConfig{MaxJobs: 4})
		defer s.Close(context.Background())
		runJobs(t, s, 200) // warm the engine's cache and the store's slices
		before := liveHeap()
		const jobs = 5000
		runJobs(t, s, jobs)
		after := liveHeap()
		if after > before && (after-before)/jobs >= 100 {
			t.Errorf("live heap grew %d B over %d jobs (%d B per job), want under 100 B per job",
				after-before, jobs, (after-before)/jobs)
		}
	})
	t.Run("retained", func(t *testing.T) {
		s := NewJobStore(NewEngine(EngineConfig{DefaultRuns: 100}), JobStoreConfig{MaxJobs: 2000})
		defer s.Close(context.Background())
		runJobs(t, s, 100)
		before := liveHeap()
		const n = 1000
		jobs := runJobs(t, s, n)
		after := liveHeap()
		for _, j := range jobs {
			j.mu.Lock()
			cancel, update := j.cancel, j.update
			j.mu.Unlock()
			if cancel != nil || update != closedUpdate {
				t.Fatalf("%s: settled job keeps cancel func %v, own update channel %v; want neither",
					j.ID(), cancel != nil, update != closedUpdate)
			}
			// A later bump, such as a first-read demotion, closes nothing twice.
			j.mu.Lock()
			j.bumpLocked()
			j.mu.Unlock()
			if st := j.Cancel(); st.State != JobCompleted {
				t.Fatalf("%s: Cancel of a settled job = %+v, want it completed", j.ID(), st)
			}
		}
		if after > before && (after-before)/n >= 1250 {
			t.Errorf("%d retained jobs hold %d B of live heap each, want under 1,250 B", n, (after-before)/n)
		}
	})
}
