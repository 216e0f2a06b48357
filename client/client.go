// Package client is the typed Go client of the dtmb-serve HTTP API. It
// speaks both surfaces — the v1 request/response endpoints and the v2
// scenario-first endpoints — re-using the server's own wire types, so a
// request that compiles here is a request the server validates.
//
// The v2 job methods make asynchronous sweeps practical over unreliable
// connections: CreateJob starts a sweep on the server, StreamJobResults
// streams its NDJSON records and, because the server's result streams are
// cursor-resumable with byte-identical replay, transparently reconnects
// after a dropped connection and resumes at the first unread record. RunJob
// bundles create + stream for callers that just want every record.
//
//	c := client.New("http://localhost:8080")
//	rec, err := c.Evaluate(ctx, client.Scenario{
//		Strategy: "hex", Design: "DTMB(2,6)", NPrimary: 100, P: 0.95, Seed: 7,
//	})
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"dmfb/internal/service"
)

// Wire types, shared with the server so client and service cannot drift.
type (
	// Scenario is one fully specified yield scenario plus its simulation
	// parameters — the request shape of POST /v2/evaluate.
	Scenario = service.ScenarioRequest
	// ScenarioResult is one evaluated scenario.
	ScenarioResult = service.ScenarioRecord
	// SweepRequest describes a Cartesian grid of scenarios — the request
	// shape of POST /v1/sweep and POST /v2/jobs.
	SweepRequest = service.SweepRequest
	// SweepRecord is one grid point's result: its index plus its scenario.
	SweepRecord = service.SweepRecord
	// JobStatus is a sweep job snapshot.
	JobStatus = service.JobStatus
	// YieldRequest, YieldResponse, RecommendRequest, RecommendResponse,
	// ReconfigureRequest, ReconfigureResponse and StatsResponse are the v1
	// contracts.
	YieldRequest        = service.YieldRequest
	YieldResponse       = service.YieldResponse
	RecommendRequest    = service.RecommendRequest
	RecommendResponse   = service.RecommendResponse
	ReconfigureRequest  = service.ReconfigureRequest
	ReconfigureResponse = service.ReconfigureResponse
	StatsResponse       = service.StatsResponse
	// WorkerRegisterRequest/Response, ShardLease, and ShardResultRequest are
	// the worker↔coordinator dispatch contracts (POST /v2/workers/*), used by
	// the dtmb-worker binary with this client as its transport.
	WorkerRegisterRequest  = service.WorkerRegisterRequest
	WorkerRegisterResponse = service.WorkerRegisterResponse
	ShardLease             = service.ShardLease
	ShardResultRequest     = service.ShardResultRequest
)

// APIError is a non-2xx response decoded from the server's error envelope.
type APIError struct {
	// StatusCode is the HTTP status of the response.
	StatusCode int
	// Message is the server's error string.
	Message string
	// RequestID is the response's X-Request-ID — the server-side trace ID
	// of the failed request. Quote it when reporting a problem: it joins
	// this call to the server's access log and kernel spans.
	RequestID string
}

func (e *APIError) Error() string {
	if e.RequestID != "" {
		return fmt.Sprintf("server returned %d (request %s): %s", e.StatusCode, e.RequestID, e.Message)
	}
	return fmt.Sprintf("server returned %d: %s", e.StatusCode, e.Message)
}

// StreamError is the trailing {"error": ...} record of an NDJSON stream —
// the server's signal that a sweep or job ended incompletely (failed or
// cancelled) rather than a transport fault.
type StreamError struct {
	Message string
}

func (e *StreamError) Error() string { return "stream ended with error: " + e.Message }

// Client talks to one dtmb-serve base URL.
type Client struct {
	base      string
	httpc     *http.Client
	policy    Policy
	requestID string
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles).
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.httpc = h }
}

// WithPolicy installs the retry/backoff/deadline policy governing every
// retried path: idempotent request retries, stream reconnects, and the
// per-attempt timeout. Zero fields fall back to DefaultPolicy.
func WithPolicy(p Policy) Option {
	return func(c *Client) { c.policy = p }
}

// WithRequestID sets the X-Request-ID header on every request this client
// sends. The server adopts it as the request's trace ID, so one
// caller-chosen token links the client call to the server's access log and
// kernel spans. Empty (the default) lets the server assign IDs.
func WithRequestID(id string) Option {
	return func(c *Client) { c.requestID = id }
}

// New builds a client for the server at base (e.g. "http://localhost:8080").
// The stock *http.Client carries explicit transport limits (dial, TLS, and
// response-header timeouts) so a stalled server surfaces as an error instead
// of hanging the caller forever; see defaultTransport.
func New(base string, opts ...Option) *Client {
	c := &Client{
		base:   strings.TrimRight(base, "/"),
		httpc:  &http.Client{Transport: defaultTransport()},
		policy: DefaultPolicy(),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// do issues one JSON round-trip: POST body (or bare GET/DELETE when in is
// nil) and decode the 2xx response into out. Idempotent methods (GET,
// DELETE) are retried under the client's policy on transport faults and
// 5xx/429 answers; POSTs get exactly one attempt — the server deduplicates
// worker submissions, but a blindly retried POST /v2/jobs would duplicate
// the job itself, so non-idempotent retry stays the caller's decision.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	if method == http.MethodGet || method == http.MethodDelete {
		return c.policy.Do(ctx, func(actx context.Context) error {
			return c.doOnce(actx, method, path, in, out)
		})
	}
	if t := c.policy.normalized().AttemptTimeout; t > 0 {
		actx, cancel := context.WithTimeout(ctx, t)
		defer cancel()
		ctx = actx
	}
	return c.doOnce(ctx, method, path, in, out)
}

// doOnce is a single JSON round-trip.
func (c *Client) doOnce(ctx context.Context, method, path string, in, out any) error {
	resp, err := c.send(ctx, method, path, in)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// send issues one request, with in (when non-nil) as its JSON body, and
// returns the 2xx response, whose body the caller closes, or the *APIError
// decoded from the server's error envelope of any other answer.
func (c *Client) send(ctx context.Context, method, path string, in any) (*http.Response, error) {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.requestID != "" {
		req.Header.Set("X-Request-ID", c.requestID)
	}
	resp, err := c.httpc.Do(req)
	if err != nil || resp.StatusCode/100 == 2 {
		return resp, err
	}
	defer resp.Body.Close()
	var eb struct {
		Error string `json:"error"`
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err := json.Unmarshal(raw, &eb); err != nil || eb.Error == "" {
		eb.Error = strings.TrimSpace(string(raw))
	}
	return nil, &APIError{
		StatusCode: resp.StatusCode,
		Message:    eb.Error,
		RequestID:  resp.Header.Get("X-Request-ID"),
	}
}

// Evaluate runs one scenario via POST /v2/evaluate.
func (c *Client) Evaluate(ctx context.Context, sc Scenario) (ScenarioResult, error) {
	var out ScenarioResult
	err := c.do(ctx, http.MethodPost, "/v2/evaluate", &sc, &out)
	return out, err
}

// Yield runs POST /v1/yield.
func (c *Client) Yield(ctx context.Context, req YieldRequest) (YieldResponse, error) {
	var out YieldResponse
	err := c.do(ctx, http.MethodPost, "/v1/yield", &req, &out)
	return out, err
}

// Recommend runs POST /v1/recommend.
func (c *Client) Recommend(ctx context.Context, req RecommendRequest) (RecommendResponse, error) {
	var out RecommendResponse
	err := c.do(ctx, http.MethodPost, "/v1/recommend", &req, &out)
	return out, err
}

// Reconfigure runs POST /v1/reconfigure.
func (c *Client) Reconfigure(ctx context.Context, req ReconfigureRequest) (ReconfigureResponse, error) {
	var out ReconfigureResponse
	err := c.do(ctx, http.MethodPost, "/v1/reconfigure", &req, &out)
	return out, err
}

// Stats runs GET /v1/stats.
func (c *Client) Stats(ctx context.Context) (StatsResponse, error) {
	var out StatsResponse
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &out)
	return out, err
}

// CreateJob starts an asynchronous sweep via POST /v2/jobs and returns its
// initial status (the job is already running).
func (c *Client) CreateJob(ctx context.Context, req SweepRequest) (JobStatus, error) {
	var out JobStatus
	err := c.do(ctx, http.MethodPost, "/v2/jobs", &req, &out)
	return out, err
}

// Job fetches a job's status via GET /v2/jobs/{id}.
func (c *Client) Job(ctx context.Context, id string) (JobStatus, error) {
	var out JobStatus
	err := c.do(ctx, http.MethodGet, "/v2/jobs/"+url.PathEscape(id), nil, &out)
	return out, err
}

// CancelJob cancels a job via DELETE /v2/jobs/{id}; the returned status is
// already terminal.
func (c *Client) CancelJob(ctx context.Context, id string) (JobStatus, error) {
	var out JobStatus
	err := c.do(ctx, http.MethodDelete, "/v2/jobs/"+url.PathEscape(id), nil, &out)
	return out, err
}

// StreamJobResults streams a job's records from the given cursor, invoking
// fn for each in grid order, following a still-running job until it
// finishes. A dropped connection is resumed transparently at the first
// unread record (the server replays identical bytes for any range, so the
// caller observes the exact uninterrupted sequence); after the configured
// reconnect budget is exhausted without progress, the last transport error
// surfaces. A job that failed or was cancelled server-side surfaces as a
// *StreamError after its final record. Returns the next cursor — the number
// of records consumed from the start of the stream, which doubles as the
// resume point for a later call.
func (c *Client) StreamJobResults(ctx context.Context, id string, cursor int, fn func(SweepRecord) error) (int, error) {
	budget := c.policy.normalized().MaxAttempts - 1
	attempts := 0
	for {
		n, err := c.streamOnce(ctx, id, cursor, fn)
		if n > cursor {
			attempts = 0 // progress: refill the reconnect budget
		}
		cursor = n
		if err == nil || ctx.Err() != nil {
			return cursor, err
		}
		// fn aborted the stream: that is the caller's decision, not a
		// transport fault — surface their error untouched, no retries.
		var cbErr *callbackError
		if errors.As(err, &cbErr) {
			return cursor, cbErr.err
		}
		// Definitive server answers (4xx, terminal stream error records) are
		// not retryable; transport faults and 5xx are, under the policy's
		// jittered backoff, until the budget runs dry without progress.
		if !Retryable(err) {
			return cursor, err
		}
		if attempts++; attempts > budget {
			return cursor, fmt.Errorf("client: stream of job %s lost at cursor %d after %d reconnects: %w",
				id, cursor, budget, err)
		}
		if serr := sleepCtx(ctx, c.policy.Backoff(attempts-1)); serr != nil {
			return cursor, serr
		}
	}
}

// streamOnce performs one GET /v2/jobs/{id}/results?cursor=N pass.
func (c *Client) streamOnce(ctx context.Context, id string, cursor int, fn func(SweepRecord) error) (int, error) {
	resp, err := c.send(ctx, http.MethodGet,
		"/v2/jobs/"+url.PathEscape(id)+"/results?cursor="+strconv.Itoa(cursor), nil)
	if err != nil {
		return cursor, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		// One decode serves both cases: a result record never carries an
		// "error" key, and the terminal error record carries nothing else.
		var rec struct {
			SweepRecord
			Error string `json:"error"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			return cursor, fmt.Errorf("client: malformed stream record: %w", err)
		}
		if rec.Error != "" {
			return cursor, &StreamError{Message: rec.Error}
		}
		if err := fn(rec.SweepRecord); err != nil {
			return cursor, &callbackError{err: err}
		}
		cursor++
	}
	return cursor, sc.Err()
}

// callbackError tags an error returned by the caller's per-record callback,
// so the resume loop can distinguish a deliberate abort from a transport
// fault (which is retried, re-invoking the callback from the last consumed
// record).
type callbackError struct{ err error }

func (e *callbackError) Error() string { return e.err.Error() }
func (e *callbackError) Unwrap() error { return e.err }

// Ready probes GET /readyz; a nil error means the server is accepting work
// (the durable store finished replaying and shutdown has not begun). Workers
// poll this before registering so they never race a coordinator's replay.
func (c *Client) Ready(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/readyz", nil, nil)
}

// RegisterWorker announces a worker via POST /v2/workers/register and
// returns its assigned ID plus the coordinator's lease TTL.
func (c *Client) RegisterWorker(ctx context.Context, req WorkerRegisterRequest) (WorkerRegisterResponse, error) {
	var out WorkerRegisterResponse
	err := c.do(ctx, http.MethodPost, "/v2/workers/register", &req, &out)
	return out, err
}

// LeaseShard asks the coordinator for one shard of work via
// POST /v2/workers/lease. The coordinator holds the request until work
// arrives or its hold bound passes; a (nil, nil) return means none arrived
// (HTTP 204), and the worker should ask again at once. Only an error (a
// transport fault, or 503 from a coordinator shutting down) calls for a
// jittered backoff before the next try.
func (c *Client) LeaseShard(ctx context.Context, workerID string) (*ShardLease, error) {
	resp, err := c.send(ctx, http.MethodPost, "/v2/workers/lease", &service.LeaseRequest{WorkerID: workerID})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNoContent {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, nil
	}
	lease := new(ShardLease)
	if err := json.NewDecoder(resp.Body).Decode(lease); err != nil {
		return nil, err
	}
	return lease, nil
}

// HeartbeatLease renews a shard lease via POST /v2/workers/heartbeat. An
// *APIError with StatusCode 410 means the lease is gone — expired and
// redispatched, or its job cancelled — and the worker should abandon the
// shard's evaluation.
func (c *Client) HeartbeatLease(ctx context.Context, workerID, leaseID string) error {
	in := service.HeartbeatRequest{WorkerID: workerID, LeaseID: leaseID}
	return c.do(ctx, http.MethodPost, "/v2/workers/heartbeat", &in, nil)
}

// SubmitShard delivers a completed shard's records via
// POST /v2/workers/results. Submission is idempotent server-side, so a
// worker may safely retry after a transport fault.
func (c *Client) SubmitShard(ctx context.Context, req ShardResultRequest) error {
	return c.do(ctx, http.MethodPost, "/v2/workers/results", &req, nil)
}

// RunJob creates a sweep job and streams every record through fn, resuming
// across disconnects; it returns the job's terminal status. The one-call
// replacement for a synchronous POST /v1/sweep.
func (c *Client) RunJob(ctx context.Context, req SweepRequest, fn func(SweepRecord) error) (JobStatus, error) {
	st, err := c.CreateJob(ctx, req)
	if err != nil {
		return st, err
	}
	if _, err := c.StreamJobResults(ctx, st.ID, 0, fn); err != nil {
		return st, err
	}
	return c.Job(ctx, st.ID)
}
