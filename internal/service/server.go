package service

import (
	"context"
	"fmt"
	"log/slog"
	"mime"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"dmfb/internal/telemetry"
)

// ServerConfig configures the HTTP server around an engine.
type ServerConfig struct {
	// Addr is the listen address, e.g. ":8080"; empty means ":8080".
	Addr string
	// Engine tunes the simulation engine behind the handlers.
	Engine EngineConfig
	// Jobs tunes the asynchronous sweep-job store.
	Jobs JobStoreConfig
	// StoreDir, when non-empty, backs the job store with the durable
	// file-based implementation rooted there: jobs survive a coordinator
	// restart (finished jobs replay, partial jobs resume). Empty keeps the
	// in-memory store.
	StoreDir string
	// ExtraRoutes are mounted on the server's mux verbatim — the dispatch
	// coordinator's /v2/workers/* endpoints arrive here.
	ExtraRoutes []Route
	// Logger receives lifecycle events, the structured access log, and (at
	// debug level) kernel chunk spans; nil means JSON to stderr at info.
	// When Engine.Logger is unset it inherits this logger, so one injection
	// point configures every layer.
	Logger *slog.Logger
}

// Server is the dtmb-serve HTTP server: handlers over one Engine and one
// job Store, with graceful shutdown that drains in-flight simulations and
// cancels running jobs without leaking their goroutines.
type Server struct {
	engine *Engine
	jobs   *Store
	http   *http.Server
	ln     net.Listener
	logger *slog.Logger
}

// NewServer builds the server; call Listen then Serve (or combine via Run).
// Construction fails only when a configured StoreDir cannot be prepared.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Addr == "" {
		cfg.Addr = ":8080"
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	if cfg.Engine.Logger == nil {
		cfg.Engine.Logger = logger
	}
	engine := NewEngine(cfg.Engine)
	var jobs *Store
	if cfg.StoreDir != "" {
		var err error
		jobs, err = NewFileJobStore(engine, cfg.Jobs, cfg.StoreDir)
		if err != nil {
			return nil, err
		}
	} else {
		jobs = NewJobStore(engine, cfg.Jobs)
	}
	return &Server{
		engine: engine,
		jobs:   jobs,
		logger: logger,
		http: &http.Server{
			Addr:              cfg.Addr,
			Handler:           NewHandler(engine, jobs, logger, cfg.ExtraRoutes...),
			ReadHeaderTimeout: 10 * time.Second,
		},
	}, nil
}

// NewHandler assembles the full serving stack: the v1+v2 mux wrapped in the
// server middleware (request-ID echo and trace-ID propagation, POST
// content-type enforcement, HTTP metrics, and a structured access log line
// per request). Tests that need the exact production behavior — 415s,
// X-Request-ID headers — use this instead of the bare NewMux. A nil logger
// discards log output (metrics and trace propagation still apply).
func NewHandler(e *Engine, jobs *Store, logger *slog.Logger, extra ...Route) http.Handler {
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	return withMiddleware(NewMux(e, jobs, extra...), logger, e.metrics)
}

// Engine exposes the underlying engine (for stats and tests).
func (s *Server) Engine() *Engine { return s.engine }

// Listen binds the address; Addr is then available for clients.
func (s *Server) Listen() error {
	ln, err := net.Listen("tcp", s.http.Addr)
	if err != nil {
		return fmt.Errorf("service: listen %s: %w", s.http.Addr, err)
	}
	s.ln = ln
	return nil
}

// Addr returns the bound address after Listen (useful with ":0").
func (s *Server) Addr() string {
	if s.ln == nil {
		return s.http.Addr
	}
	return s.ln.Addr().String()
}

// Serve blocks serving requests until Shutdown; it returns nil after a
// graceful shutdown.
func (s *Server) Serve() error {
	if s.ln == nil {
		if err := s.Listen(); err != nil {
			return err
		}
	}
	s.logger.Info("dtmb-serve listening",
		slog.String("addr", s.Addr()), slog.Int("default_runs", s.engine.DefaultRuns()))
	if err := s.http.Serve(s.ln); err != nil && err != http.ErrServerClosed {
		return err
	}
	return nil
}

// RegisterOnShutdown registers f to run when Shutdown begins draining
// requests, after running jobs are cancelled. A handler that holds its
// request open waiting for work (the dispatch coordinator's lease long
// poll) registers its wake-up here; otherwise its connection would not go
// idle until the hold ran out.
func (s *Server) RegisterOnShutdown(f func()) { s.http.RegisterOnShutdown(f) }

// Run serves until ctx is cancelled, then shuts down gracefully within
// grace, draining in-flight requests and running jobs.
func (s *Server) Run(ctx context.Context, grace time.Duration) error {
	errCh := make(chan error, 1)
	go func() { errCh <- s.Serve() }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	s.logger.Info("dtmb-serve shutting down", slog.Duration("grace", grace))
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := s.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("service: shutdown: %w", err)
	}
	return <-errCh
}

// Shutdown stops the server: running jobs are cancelled first (which also
// unblocks any handler following a job's result stream), their goroutines
// joined, then in-flight requests are drained, all within ctx.
func (s *Server) Shutdown(ctx context.Context) error {
	jobsErr := s.jobs.Close(ctx)
	if err := s.http.Shutdown(ctx); err != nil {
		return err
	}
	return jobsErr
}

// requestSeq numbers generated request IDs process-wide.
var requestSeq atomic.Uint64

// statusWriter captures the response status and size for the access log
// while passing Flush through to the underlying writer, so NDJSON streams
// keep flushing as they go.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// Flush forwards to the wrapped writer (http.ResponseController also finds
// it via Unwrap).
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the wrapped writer to http.ResponseController.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// withMiddleware wraps next with the server-level cross-cutting concerns:
//
//   - X-Request-ID: an incoming ID is echoed on the response (and into the
//     access log); absent one, the server assigns req-<n>. The ID also
//     becomes the request context's trace ID (telemetry.WithTraceID), which
//     every layer below — engine, jobs, kernel chunk spans — reads back, so
//     one ID connects the access-log line to the kernel work it caused.
//   - Content-Type enforcement: every POST must declare application/json
//     (with optional parameters, e.g. a charset) or is rejected with 415
//     before its body is read.
//   - HTTP metrics: request count by status plus a duration histogram.
//   - Access log: one structured line per request on logger.
func withMiddleware(next http.Handler, logger *slog.Logger, m *serviceMetrics) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := sanitizeRequestID(r.Header.Get("X-Request-ID"))
		if id == "" {
			id = fmt.Sprintf("req-%d", requestSeq.Add(1))
		}
		w.Header().Set("X-Request-ID", id)
		r = r.WithContext(telemetry.WithTraceID(r.Context(), id))
		sw := &statusWriter{ResponseWriter: w}
		finish := func() {
			status := sw.status
			if status == 0 {
				status = http.StatusOK
			}
			elapsed := time.Since(start)
			m.httpRequests.With(strconv.Itoa(status)).Inc()
			m.httpDuration.Observe(elapsed.Seconds())
			logAccess(logger, r, status, sw.bytes, id, elapsed)
		}
		if r.Method == http.MethodPost {
			ct, _, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
			if err != nil || ct != "application/json" {
				WriteJSON(sw, http.StatusUnsupportedMediaType,
					errorBody{Error: "Content-Type must be application/json"})
				finish()
				return
			}
		}
		next.ServeHTTP(sw, r)
		finish()
	})
}

// sanitizeRequestID accepts a client-supplied request ID only when it is a
// single loggable token: printable ASCII with no spaces, quotes, or '='
// (which could forge key=value fields in the access log), at most 128
// bytes. Anything else is treated as absent and replaced by a generated ID.
func sanitizeRequestID(id string) string {
	if len(id) > 128 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c <= ' ' || c > '~' || c == '"' || c == '=' {
			return ""
		}
	}
	return id
}

// logAccess emits the structured access log line for one finished request.
// The path is client-controlled; the slog handler's encoding keeps it one
// forgery-proof field, like the sanitized request ID.
func logAccess(logger *slog.Logger, r *http.Request, status, bytes int, id string, elapsed time.Duration) {
	logger.LogAttrs(r.Context(), slog.LevelInfo, "http_access",
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", status),
		slog.Int("bytes", bytes),
		slog.Float64("duration_ms", float64(elapsed.Microseconds())/1000),
		slog.String("request_id", id),
		slog.String("remote", r.RemoteAddr),
	)
}
