package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// maxBodyBytes bounds request bodies; yield requests are tiny.
const maxBodyBytes = 1 << 20

// NewMux routes the API onto a fresh ServeMux:
//
//	POST   /v1/yield             Monte-Carlo yield of one design
//	POST   /v1/recommend         effective-yield winner across all designs
//	POST   /v1/reconfigure       local-reconfiguration plan for a fault list
//	POST   /v1/sweep             parameter-grid sweep, streamed as NDJSON
//	GET    /v1/stats             cache hit rate, in-flight work, job counters
//	POST   /v2/evaluate          one scenario (any strategy × defect model)
//	POST   /v2/jobs              start an asynchronous sweep job
//	GET    /v2/jobs/{id}         job status and progress
//	GET    /v2/jobs/{id}/results job results as NDJSON, resumable at ?cursor=N
//	DELETE /v2/jobs/{id}         cancel a job
//	GET    /metrics              Prometheus text-format exposition
//	GET    /healthz              liveness probe
//	GET    /readyz               readiness probe (503 while the durable
//	                             store replays or the server drains)
//
// jobs may be nil, in which case a private in-memory store (bound to the
// process lifetime, never drained) backs the job endpoints — fine for tests;
// servers pass their own store so shutdown can drain it. Extra routes (the
// dispatch coordinator's /v2/workers/* endpoints) are registered verbatim.
func NewMux(e *Engine, jobs *Store, extra ...Route) *http.ServeMux {
	if jobs == nil {
		jobs = NewJobStore(e, JobStoreConfig{})
	}
	mux := http.NewServeMux()
	for _, rt := range extra {
		mux.Handle(rt.Pattern, rt.Handler)
	}
	mux.HandleFunc("POST /v1/sweep", sweepHandler(e))
	mux.HandleFunc("POST /v1/yield", jsonHandler(func(r *http.Request, req YieldRequest) (YieldResponse, error) {
		return e.Yield(r.Context(), req)
	}))
	mux.HandleFunc("POST /v1/recommend", jsonHandler(func(r *http.Request, req RecommendRequest) (RecommendResponse, error) {
		return e.Recommend(r.Context(), req)
	}))
	mux.HandleFunc("POST /v1/reconfigure", jsonHandler(func(r *http.Request, req ReconfigureRequest) (ReconfigureResponse, error) {
		return e.Reconfigure(r.Context(), req)
	}))
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, e.Stats())
	})
	mux.Handle("GET /metrics", e.Registry().Handler())
	mux.HandleFunc("POST /v2/evaluate", jsonHandler(func(r *http.Request, req ScenarioRequest) (ScenarioRecord, error) {
		return e.EvaluateScenario(r.Context(), req)
	}))
	mux.HandleFunc("POST /v2/jobs", func(w http.ResponseWriter, r *http.Request) {
		req, ok := DecodeRequest[SweepRequest](w, r, maxBodyBytes)
		if !ok {
			return
		}
		job, err := jobs.Create(r.Context(), req)
		if err != nil {
			WriteJSON(w, errStatus(err), errorBody{Error: err.Error()})
			return
		}
		w.Header().Set("Location", "/v2/jobs/"+job.ID())
		WriteJSON(w, http.StatusAccepted, job.Status())
	})
	mux.HandleFunc("GET /v2/jobs/{id}", jobHandler(jobs, func(_ *http.Request, j *Job) (JobStatus, error) {
		return j.Status(), nil
	}))
	mux.HandleFunc("DELETE /v2/jobs/{id}", jobHandler(jobs, func(_ *http.Request, j *Job) (JobStatus, error) {
		return j.Cancel(), nil
	}))
	mux.HandleFunc("GET /v2/jobs/{id}/results", jobResultsHandler(e, jobs))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	// Liveness (/healthz) answers "is the process up"; readiness answers "can
	// it take traffic" — false while the durable store replays its on-disk
	// jobs and again once shutdown begins, so load balancers and the worker
	// registration loop steer around a coordinator that isn't serving.
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !jobs.Ready() {
			WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "not ready"})
			return
		}
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	return mux
}

// Route is an extra (pattern, handler) pair mounted by NewMux — how the
// dispatch coordinator's worker endpoints join the server's mux without the
// service package importing dispatch.
type Route struct {
	Pattern string
	Handler http.Handler
}

// jobHandler looks up the {id} path value and maps fn's result to JSON.
func jobHandler(jobs *Store, fn func(*http.Request, *Job) (JobStatus, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, err := jobs.Get(r.PathValue("id"))
		if err != nil {
			WriteJSON(w, errStatus(err), errorBody{Error: err.Error()})
			return
		}
		st, err := fn(r, j)
		if err != nil {
			WriteJSON(w, errStatus(err), errorBody{Error: err.Error()})
			return
		}
		WriteJSON(w, http.StatusOK, st)
	}
}

// jobResultsHandler streams a job's NDJSON result records from ?cursor=N
// (default 0), following a still-running job until it finishes. The bytes
// for any record range are identical across calls, so a client that lost
// its connection mid-stream resumes at its next unread record and ends up
// with the exact bytes of an uninterrupted stream.
func jobResultsHandler(e *Engine, jobs *Store) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, err := jobs.Get(r.PathValue("id"))
		if err != nil {
			WriteJSON(w, errStatus(err), errorBody{Error: err.Error()})
			return
		}
		cursor := 0
		if s := r.URL.Query().Get("cursor"); s != "" {
			cursor, err = strconv.Atoi(s)
			if err != nil || cursor < 0 {
				WriteJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("invalid cursor %q", s)})
				return
			}
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		// Every line ready at a wake is written, then flushed once: a
		// finished job's stream costs one flush, a followed job's one per
		// committed run.
		var flush func()
		if flusher, ok := w.(http.Flusher); ok {
			flushes := e.metrics.streamFlushes.With("job")
			flush = func() {
				flusher.Flush()
				flushes.Inc()
			}
		}
		_, _ = j.streamResults(r.Context(), cursor, func(line []byte) error {
			_, err := w.Write(line)
			return err
		}, flush)
	}
}

// errorBody is the uniform error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// DecodeRequest strictly decodes a request body of at most limit bytes
// into Req: unknown fields and trailing data are rejected with 400, a body
// over the limit with 413. On failure it writes the JSON error response
// itself and reports ok = false. The worker endpoints of package dispatch
// decode through it too, so every endpoint rejects a body the same way.
func DecodeRequest[Req any](w http.ResponseWriter, r *http.Request, limit int64) (req Req, ok bool) {
	body := http.MaxBytesReader(w, r.Body, limit)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		status := http.StatusBadRequest
		if maxErr := new(http.MaxBytesError); errors.As(err, &maxErr) {
			status = http.StatusRequestEntityTooLarge
		}
		WriteJSON(w, status, errorBody{Error: fmt.Sprintf("invalid request body: %v", err)})
		return req, false
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		status := http.StatusBadRequest
		if maxErr := new(http.MaxBytesError); errors.As(err, &maxErr) {
			status = http.StatusRequestEntityTooLarge
		}
		WriteJSON(w, status, errorBody{Error: "invalid request body: trailing data"})
		return req, false
	}
	return req, true
}

// jsonHandler decodes a request body into Req, runs fn, and encodes its
// response, mapping errors to HTTP statuses.
func jsonHandler[Req, Resp any](fn func(*http.Request, Req) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		req, ok := DecodeRequest[Req](w, r, maxBodyBytes)
		if !ok {
			return
		}
		resp, err := fn(r, req)
		if err != nil {
			status := errStatus(err)
			WriteJSON(w, status, errorBody{Error: err.Error()})
			return
		}
		WriteJSON(w, http.StatusOK, resp)
	}
}

// sweepHandler streams a sweep as NDJSON: one SweepRecord line per grid
// point, in deterministic point order. Each run of records the sweep
// commits is flushed as soon as it is encoded, so a client watching
// `curl -N` sees the grid fill in. Validation failures are rejected as
// ordinary JSON errors before the stream starts; a failure
// mid-stream appends a trailing {"error": ...} line, which is how a client
// distinguishes a truncated sweep from a finished one.
func sweepHandler(e *Engine) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		req, ok := DecodeRequest[SweepRequest](w, r, maxBodyBytes)
		if !ok {
			return
		}
		if req.Distributed {
			err := invalidf("distributed mode requires an asynchronous job (POST /v2/jobs)")
			WriteJSON(w, errStatus(err), errorBody{Error: err.Error()})
			return
		}
		plan, err := e.PlanSweep(req)
		if err != nil {
			WriteJSON(w, errStatus(err), errorBody{Error: err.Error()})
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		flusher, _ := w.(http.Flusher)
		flushes := e.metrics.streamFlushes.With("sweep")
		enc := json.NewEncoder(w)
		err = e.RunSweep(r.Context(), plan, func(run []SweepRecord) error {
			for _, rec := range run {
				// The v1 stream predates the successes/epsilon fields;
				// suppress them here to keep its bytes frozen. The v2 job
				// stream carries both.
				rec.Successes, rec.Epsilon = 0, 0
				if err := enc.Encode(rec); err != nil {
					return err
				}
			}
			if flusher != nil {
				flusher.Flush()
				flushes.Inc()
			}
			return nil
		})
		if err != nil && r.Context().Err() == nil {
			_ = enc.Encode(SweepError{Error: err.Error()})
		}
	}
}

// errStatus maps engine and job-store errors to HTTP statuses: validation →
// 400, unknown job → 404, full job store → 429, caller cancellation/timeout
// or shutdown → 503, anything else → 500.
func errStatus(err error) int {
	switch {
	case errors.Is(err, ErrInvalidRequest):
		return http.StatusBadRequest
	case errors.Is(err, ErrJobNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrTooManyJobs):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrNotReady), errors.Is(err, errStoreClosed), isContextErr(err):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// WriteJSON encodes v as the response body with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
