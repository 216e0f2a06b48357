// Command dtmb-serve runs the yield-analysis HTTP service: Monte-Carlo
// yield estimation, design recommendation, reconfiguration-plan queries,
// single-scenario evaluation, and asynchronous resumable sweep jobs over
// the DTMB defect-tolerance machinery, with an LRU result cache and
// single-flight deduplication of concurrent identical requests. POST bodies
// must declare Content-Type: application/json.
//
// Examples (the jq-free flavor; package client is the typed alternative):
//
//	dtmb-serve -addr :8080
//	curl -s -H 'Content-Type: application/json' localhost:8080/v1/yield \
//	    -d '{"design":"DTMB(2,6)","n_primary":100,"p":0.95,"runs":2000,"seed":7}'
//	curl -s -H 'Content-Type: application/json' localhost:8080/v2/evaluate \
//	    -d '{"strategy":"hex","design":"dtmb26","n_primary":100,"p":0.95,"seed":7}'
//	curl -s -H 'Content-Type: application/json' localhost:8080/v2/jobs \
//	    -d '{"strategies":["local","hex"],"runs":2000,"seed":7}'
//	curl -sN 'localhost:8080/v2/jobs/job-1/results?cursor=0'
//	curl -s localhost:8080/v1/stats
//
// See API.md for the full contract and DESIGN.md for the architecture.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dmfb/internal/dispatch"
	"dmfb/internal/faultinject"
	"dmfb/internal/service"
	"dmfb/internal/telemetry"
)

// parseLogLevel maps the -log-level flag to a slog level. At debug the
// kernel additionally emits one span per Monte-Carlo chunk, which is
// far too chatty for production but joins an access-log line to the
// simulation work it caused via the shared request/trace ID.
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
		addr          = flag.String("addr", ":8080", "listen address")
		cacheSize     = flag.Int("cache-size", 1024, "LRU result-cache capacity (entries)")
		defaultRuns   = flag.Int("default-runs", 10000, "Monte-Carlo runs when a request omits runs")
		workers       = flag.Int("workers", 0, "goroutines per simulation (0 = GOMAXPROCS); does not affect results")
		maxConcurrent = flag.Int("max-concurrent", 0, "simulations admitted at once (0 = 2; each simulation already parallelizes across cores)")
		maxJobs       = flag.Int("max-jobs", 0, "sweep jobs retained in memory, running and finished combined (0 = 128)")
		maxResultMB   = flag.Int("max-result-mb", 0, "MiB of encoded job results retained by finished jobs before oldest-first eviction (0 = 64)")
		storeDir      = flag.String("store-dir", "", "durable job-store directory; jobs survive restarts and partial jobs resume (empty = in-memory)")
		dispatchOn    = flag.Bool("dispatch", false, "enable distributed sweep dispatch: serve /v2/workers/* and accept jobs with \"distributed\": true")
		leaseTTL      = flag.Duration("lease-ttl", 10*time.Second, "shard lease time-to-live without a heartbeat before redispatch (with -dispatch)")
		shardSize     = flag.Int("shard-size", 0, "grid points per dispatched shard (0 = 64; with -dispatch)")
		maxDispatches = flag.Int("max-shard-dispatches", 0, "dispatch budget per shard before the job is failed as poisoned (0 = 5; with -dispatch)")
		chaosStore    = flag.String("chaos-store", "", "fault-injection schedule for the durable job store, e.g. 'store.append.fsync=0.1,store.append.write=#3' (testing only)")
		chaosSeed     = flag.Uint64("chaos-seed", 1, "seed for the -chaos-store schedule's deterministic PRNGs")
		grace         = flag.Duration("grace", 15*time.Second, "graceful-shutdown drain timeout (requests and running jobs)")
		logLevel      = flag.String("log-level", "info", "log verbosity: debug, info, warn, or error (debug adds per-chunk kernel spans)")
		pprofAddr     = flag.String("pprof-addr", "", "listen address for net/http/pprof (empty = disabled); keep it private, e.g. localhost:6060")
	)
	flag.Parse()

	level, err := parseLogLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtmb-serve:", err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	storeInject, err := faultinject.ParseSpec(*chaosStore, *chaosSeed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtmb-serve:", err)
		os.Exit(2)
	}
	if storeInject != nil {
		logger.Warn("store fault injection armed", slog.String("schedule", storeInject.String()))
	}

	// pprof lives on its own listener, never the API address: profiling
	// endpoints expose internals and must be bindable to localhost only.
	if *pprofAddr != "" {
		pprofMux := http.NewServeMux()
		pprofMux.HandleFunc("/debug/pprof/", pprof.Index)
		pprofMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pprofMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pprofMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pprofMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			logger.Info("pprof listening", slog.String("addr", *pprofAddr))
			if err := http.ListenAndServe(*pprofAddr, pprofMux); err != nil {
				logger.Error("pprof server failed", slog.String("error", err.Error()))
			}
		}()
	}

	// The engine's registry must exist up front when dispatch is enabled, so
	// the coordinator's series land on the same /metrics exposition.
	registry := telemetry.NewRegistry()
	cfg := service.ServerConfig{
		Addr: *addr,
		Engine: service.EngineConfig{
			CacheSize:     *cacheSize,
			DefaultRuns:   *defaultRuns,
			Workers:       *workers,
			MaxConcurrent: *maxConcurrent,
			Registry:      registry,
		},
		Jobs:     service.JobStoreConfig{MaxJobs: *maxJobs, MaxResultBytes: int64(*maxResultMB) << 20, Inject: storeInject},
		StoreDir: *storeDir,
		Logger:   logger,
	}
	var coord *dispatch.Coordinator
	if *dispatchOn {
		coord = dispatch.NewCoordinator(dispatch.Config{
			LeaseTTL:           *leaseTTL,
			ShardSize:          *shardSize,
			MaxShardDispatches: *maxDispatches,
			Registry:           registry,
			Logger:             logger,
		})
		defer coord.Close()
		cfg.Jobs.Runner = coord
		cfg.ExtraRoutes = coord.Routes()
	}
	srv, err := service.NewServer(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtmb-serve:", err)
		os.Exit(1)
	}
	if coord != nil {
		// Closing the coordinator answers the workers' held lease requests,
		// so their connections go idle as soon as the drain starts.
		srv.RegisterOnShutdown(coord.Close)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := srv.Run(ctx, *grace); err != nil {
		fmt.Fprintln(os.Stderr, "dtmb-serve:", err)
		os.Exit(1)
	}
}
