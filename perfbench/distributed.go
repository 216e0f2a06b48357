package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"dmfb/client"
	"dmfb/internal/dispatch"
	"dmfb/internal/layout"
	"dmfb/internal/service"
	"dmfb/internal/telemetry"
)

// distributedJob is the distributed_job workload: POST /v2/jobs with
// distributed:true through client.RunJob, against a coordinator on a
// durable file store with two in-process worker loops (one simulation
// thread each). Lease, heartbeat, ordered merge, the fsync'd append and the
// resumable stream all block the result. After each job its finished
// result stream is fetched again, raw, from the store.
type distributedJob struct {
	seed int64
	jobs []service.SweepRequest

	mu   sync.Mutex
	kept []keptJob // one job per pass, compared byte for byte after timing
}

// keptJob is a finished distributed job's request and raw result stream.
type keptJob struct {
	req    service.SweepRequest
	stream []byte
}

// workerPoll is the workers' idle lease-poll interval. The production
// default (500ms) would make every job wait on polling, which is not what
// this workload measures.
const workerPoll = 5 * time.Millisecond

func newDistributedJob(o options) runner {
	w := &distributedJob{seed: o.seed}
	strategies := []string{"local", "hex"}
	designs := layout.AllDesigns()
	models := []string{"independent", "clustered"}
	// Ten points at 5000 runs, two shards of five: one shard per worker,
	// and few enough fsync'd records per job that the disk's latency on a
	// shared machine does not set the job's time.
	points, runs := 10, 5000
	if o.small {
		designs, points, runs = designs[:1], 6, 200
	}
	for _, s := range strategies {
		for _, d := range designs {
			for _, m := range models {
				w.jobs = append(w.jobs, service.SweepRequest{
					Strategies:   []string{s},
					Designs:      []string{d.Name},
					DefectModels: []string{m},
					PMin:         0.95, PMax: 0.999, PPoints: points,
					Runs:        runs,
					Distributed: true,
				})
			}
		}
	}
	return w
}

func (w *distributedJob) setup(ctx context.Context, dir string, spans *spanLog) (*system, error) {
	e := service.NewEngine(service.EngineConfig{})
	coord := dispatch.NewCoordinator(dispatch.Config{ShardSize: 5, Registry: e.Registry()})
	store, err := service.NewFileJobStore(e, service.JobStoreConfig{Runner: coord}, dir)
	if err != nil {
		coord.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	wctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	regs := []*telemetry.Registry{e.Registry()}
	sys := serve(service.NewHandler(e, store, nil, coord.Routes()...), spans, nil, func() {
		cancel()
		wg.Wait()
		closeCtx, done := context.WithTimeout(context.Background(), 30*time.Second)
		defer done()
		_ = store.Close(closeCtx) // every job finished; nothing left to drain
		coord.Close()
		os.RemoveAll(dir)
	})
	// The workers start once the store has replayed, so their first
	// readiness probe succeeds instead of entering the retry backoff.
	if err := waitReplayed(ctx, store); err != nil {
		sys.close()
		return nil, err
	}
	for i := range 2 {
		reg := telemetry.NewRegistry()
		regs = append(regs, reg)
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := dispatch.RunWorker(wctx, dispatch.WorkerConfig{
				Coordinator: sys.url,
				Name:        fmt.Sprintf("w%d", i+1),
				Engine:      service.EngineConfig{Workers: 1, Registry: reg},
				Poll:        workerPoll,
			})
			if err != nil && wctx.Err() == nil {
				fmt.Fprintln(os.Stderr, "perfbench: worker:", err)
			}
		}()
	}
	sys.regs = regs
	// Ready means the store replay finished and both workers registered.
	for coord.Stats().WorkersActive < 2 {
		if err := ctx.Err(); err != nil {
			sys.close()
			return nil, err
		}
		time.Sleep(100 * time.Microsecond)
	}
	if err := sys.client.Ready(ctx); err != nil {
		sys.close()
		return nil, err
	}
	return sys, nil
}

func (w *distributedJob) pass(ctx context.Context, sys *system, k int, st *tally) error {
	rng := passRand(w.seed, k)
	seed := rng.Int64N(1<<31) + 1
	keep := rng.IntN(len(w.jobs))
	for j, i := range rng.Perm(len(w.jobs)) {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		req := w.jobs[i]
		req.Seed = seed
		recs, id, ok := w.run(ctx, sys, req, st)
		if !ok {
			continue
		}
		rec := recs[rng.IntN(len(recs))]
		st.keep(served{req: requestOf(rec.ScenarioRecord, req.Runs, seed, 0), rec: rec.ScenarioRecord, count: 1})
		raw, ok := w.restream(ctx, sys, id, recs, st)
		if ok && j == keep {
			w.mu.Lock()
			w.kept = append(w.kept, keptJob{req: req, stream: raw})
			w.mu.Unlock()
		}
	}
	return nil
}

// run creates one distributed job and streams it to the end through
// client.RunJob, checking the stream's shape and the terminal state.
func (w *distributedJob) run(ctx context.Context, sys *system, req service.SweepRequest, st *tally) ([]service.SweepRecord, string, bool) {
	n := int64(req.PPoints)
	trace := st.traceID("job")
	var recs []service.SweepRecord
	start := time.Now()
	status, err := sys.clientFor(trace).RunJob(ctx, req, func(r client.SweepRecord) error {
		recs = append(recs, r)
		return nil
	})
	d := time.Since(start)
	st.span(trace, "client.run_job", start)
	switch {
	case err != nil:
		err = fmt.Errorf("run job: %w", err)
	case status.State != service.JobCompleted:
		err = fmt.Errorf("job %s ended %s", status.ID, status.State)
	case len(recs) != req.PPoints:
		err = fmt.Errorf("job %s streamed %d records, want %d", status.ID, len(recs), req.PPoints)
	}
	if err != nil {
		st.attempt(n)
		st.fail(n, "job %+v: %v", req, err)
		return nil, "", false
	}
	for i, r := range recs {
		if r.Index != i {
			st.attempt(n)
			st.fail(n, "job %s: record %d has index %d", status.ID, i, r.Index)
			return nil, "", false
		}
	}
	st.done(n, false, d)
	for _, r := range recs {
		st.computed(r.Runs)
	}
	return recs, status.ID, true
}

// restream fetches a finished job's results again — the store's replay of
// its durable log — and checks they are the records first streamed.
func (w *distributedJob) restream(ctx context.Context, sys *system, id string, want []service.SweepRecord, st *tally) ([]byte, bool) {
	n := int64(len(want))
	trace := st.traceID("restream")
	start := time.Now()
	raw, err := getResults(ctx, sys, id, trace)
	d := time.Since(start)
	st.span(trace, "client.job_results", start)
	var got []service.SweepRecord
	if err == nil {
		got, err = decodeRecords(bytes.NewReader(raw))
	}
	if err == nil && len(got) != len(want) {
		err = fmt.Errorf("%d records, first stream had %d", len(got), len(want))
	}
	for i := 0; err == nil && i < len(got); i++ {
		if got[i] != want[i] {
			err = fmt.Errorf("record %d is %+v, first stream had %+v", i, got[i], want[i])
		}
	}
	if err != nil {
		st.attempt(n)
		st.fail(n, "results of job %s: %v", id, err)
		return nil, false
	}
	st.done(n, true, d)
	return raw, true
}

// getResults reads GET /v2/jobs/{id}/results to its end.
func getResults(ctx context.Context, sys *system, id, trace string) ([]byte, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, sys.url+"/v2/jobs/"+id+"/results", nil)
	if err != nil {
		return nil, err
	}
	if trace != "" {
		hr.Header.Set("X-Request-ID", trace)
	}
	resp, err := sys.httpc.Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// decodeRecords reads an NDJSON record stream; a trailing error record
// becomes an error.
func decodeRecords(r io.Reader) ([]service.SweepRecord, error) {
	var out []service.SweepRecord
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var rec struct {
			service.SweepRecord
			Error string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("malformed record: %w", err)
		}
		if rec.Error != "" {
			return nil, fmt.Errorf("stream ended with error: %s", rec.Error)
		}
		out = append(out, rec.SweepRecord)
	}
	return out, sc.Err()
}

// verify checks each kept job's stream is byte-identical to an in-memory,
// non-distributed job of the same request on a fresh engine, then lets the
// kept streams go.
func (w *distributedJob) verify(ctx context.Context, st *tally) {
	defer func() { w.kept = nil }()
	for _, k := range w.kept {
		req := k.req
		req.Distributed = false
		want, err := localJobStream(ctx, req)
		if err != nil {
			st.fail(int64(req.PPoints), "in-memory job %+v: %v", req, err)
			continue
		}
		if !bytes.Equal(k.stream, want) {
			st.fail(int64(req.PPoints), "distributed stream of %+v differs from the in-memory job's (%d vs %d bytes)",
				req, len(k.stream), len(want))
		}
	}
}

// localJobStream runs req as an in-memory job and returns its stream.
func localJobStream(ctx context.Context, req service.SweepRequest) ([]byte, error) {
	store := service.NewJobStore(service.NewEngine(service.EngineConfig{}), service.JobStoreConfig{})
	defer store.Close(context.Background())
	j, err := store.Create(ctx, req)
	if err != nil {
		return nil, err
	}
	if st, err := j.Wait(ctx); err != nil {
		return nil, err
	} else if st.State != service.JobCompleted {
		return nil, fmt.Errorf("job ended %s", st.State)
	}
	var buf bytes.Buffer
	_, err = j.StreamResults(ctx, 0, func(b []byte) error {
		buf.Write(b)
		return nil
	})
	return buf.Bytes(), err
}
