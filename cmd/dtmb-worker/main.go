// Command dtmb-worker is a shard-evaluation worker for distributed sweeps.
// It registers with a dtmb-serve coordinator running with -dispatch, pulls
// shard leases over HTTP, evaluates them through the same engine core as the
// coordinator (cache, single-flight, admission, telemetry), and submits the
// records back. Results are bit-identical no matter which worker evaluates a
// shard — the lease pins every determinism-relevant parameter — so workers
// are fully interchangeable and safe to kill at any time.
//
//	dtmb-serve -addr :8080 -dispatch -store-dir /var/lib/dtmb/jobs
//	dtmb-worker -coordinator http://localhost:8080 &
//	dtmb-worker -coordinator http://localhost:8080 &
//	curl -s -H 'Content-Type: application/json' localhost:8080/v2/jobs \
//	    -d '{"strategies":["local"],"runs":2000,"seed":7,"distributed":true}'
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dmfb/client"
	"dmfb/internal/dispatch"
	"dmfb/internal/faultinject"
	"dmfb/internal/service"
)

func parseLogLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q (want debug, info, warn, or error)", s)
}

func main() {
	var (
		coordinator   = flag.String("coordinator", "http://localhost:8080", "coordinator base URL (a dtmb-serve with -dispatch)")
		name          = flag.String("name", "", "worker label for the coordinator's logs (default: hostname)")
		cacheSize     = flag.Int("cache-size", 1024, "LRU result-cache capacity (entries)")
		workers       = flag.Int("workers", 0, "goroutines per simulation (0 = GOMAXPROCS); does not affect results")
		maxConcurrent = flag.Int("max-concurrent", 0, "simulations admitted at once (0 = 2)")
		poll          = flag.Duration("poll", 500*time.Millisecond, "retry backoff base after a failed coordinator call (full jitter over [0, 2×poll)); an idle worker waits in a held lease request, re-sent at once after a 204")
		logLevel      = flag.String("log-level", "info", "log verbosity: debug, info, warn, or error")
		chaos         = flag.String("chaos", "", "fault-injection schedule for the worker loop and its coordinator transport, e.g. 'worker.crash=0.3,transport.5xx=0.05' (testing only)")
		chaosSeed     = flag.Uint64("chaos-seed", 1, "seed for the -chaos schedule's deterministic PRNGs")
	)
	flag.Parse()

	level, err := parseLogLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtmb-worker:", err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	label := *name
	if label == "" {
		label, _ = os.Hostname()
	}

	inject, err := faultinject.ParseSpec(*chaos, *chaosSeed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtmb-worker:", err)
		os.Exit(2)
	}
	cfg := dispatch.WorkerConfig{
		Coordinator: *coordinator,
		Name:        label,
		Engine: service.EngineConfig{
			CacheSize:     *cacheSize,
			Workers:       *workers,
			MaxConcurrent: *maxConcurrent,
			Logger:        logger,
		},
		Poll:   *poll,
		Logger: logger,
		Inject: inject,
	}
	if inject != nil {
		// One schedule arms both seams: worker.* points fire in the shard
		// loop, transport.* points in the coordinator client's round trips.
		logger.Warn("chaos schedule armed", slog.String("schedule", inject.String()))
		cfg.ClientOptions = []client.Option{client.WithHTTPClient(&http.Client{
			Transport: &faultinject.Transport{Inject: inject},
		})}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err = dispatch.RunWorker(ctx, cfg)
	if err != nil && ctx.Err() == nil {
		fmt.Fprintln(os.Stderr, "dtmb-worker:", err)
		os.Exit(1)
	}
}
