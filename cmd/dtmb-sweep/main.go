// Command dtmb-sweep evaluates a Cartesian grid of yield scenarios —
// survival probability × array size × redundancy strategy — and writes one
// CSV or NDJSON record per grid point, suitable for regenerating the
// paper's yield-versus-defect-probability curves (Figs. 7, 9, 10) with a
// plotting tool of choice.
//
// It drives the same sweep engine as the sweep endpoints of dtmb-serve,
// including its result cache and admission control, so repeated grid points
// cost one simulation. Because the Monte-Carlo kernel is chunk-seeded,
// output is byte-identical for a given (grid, runs, seed, epsilon)
// regardless of -workers or GOMAXPROCS.
//
// With -server the grid is not evaluated in-process: the sweep runs as an
// asynchronous job on a dtmb-serve instance (POST /v2/jobs) and the records
// are streamed through the typed client, which transparently resumes the
// stream after a dropped connection. CSV output is byte-identical to the
// in-process run for the same engine configuration (CSV carries no cache
// provenance); NDJSON records may additionally say "cached":true when the
// server's result cache is warm.
//
// Examples:
//
//	dtmb-sweep -designs 'DTMB(2,6)' -n 60,120,240 -pmin 0.90 -pmax 1.0 -points 11
//	dtmb-sweep -strategies local,none,shifted,hex -n 100 -spare-rows 1,2 -runs 2000 -o grid.csv
//	dtmb-sweep -defect-models independent,clustered -cluster-size 4 -ps 0.95,0.99
//	dtmb-sweep -format ndjson -strategies hex -designs 'DTMB(4,4)'
//	dtmb-sweep -server http://localhost:8080 -strategies local,hex -runs 2000
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dmfb/client"
	"dmfb/internal/service"
)

// options holds the parsed command-line flags.
type options struct {
	strategies, designs, ns, psList string
	pmin, pmax                      float64
	points                          int
	spareRows, defectModels         string
	clusterSize                     float64
	runs                            int
	epsilon                         float64
	seed                            int64
	workers                         int
	format, outPath                 string
	server                          string
}

// registerFlags declares every dtmb-sweep flag on fs; split from main so the
// smoke test can assert the help text names every strategy and axis.
func registerFlags(fs *flag.FlagSet) *options {
	var o options
	fs.StringVar(&o.strategies, "strategies", "local", "comma-separated redundancy strategies: none, local, shifted, hex")
	fs.StringVar(&o.designs, "designs", "", "comma-separated DTMB designs for the local and hex strategies (default: all four canonical)")
	fs.StringVar(&o.ns, "n", "100", "comma-separated primary-cell counts")
	fs.StringVar(&o.psList, "ps", "", "comma-separated explicit survival probabilities (overrides -pmin/-pmax/-points)")
	fs.Float64Var(&o.pmin, "pmin", 0.90, "lowest cell survival probability")
	fs.Float64Var(&o.pmax, "pmax", 1.00, "highest cell survival probability")
	fs.IntVar(&o.points, "points", 11, "number of evenly spaced probabilities in [pmin, pmax]")
	fs.StringVar(&o.spareRows, "spare-rows", "1", "comma-separated boundary spare-row counts for the shifted strategy")
	fs.StringVar(&o.defectModels, "defect-models", "independent", "comma-separated spatial defect models: independent, clustered")
	fs.Float64Var(&o.clusterSize, "cluster-size", 0, "expected faulty cells per cluster for the clustered defect model (0 = default 4)")
	fs.IntVar(&o.runs, "runs", 10000, "Monte-Carlo runs per grid point")
	fs.Float64Var(&o.epsilon, "epsilon", 0, "target 95% CI half-width per grid point; >0 stops each estimate early once reached, with -runs as the trial budget")
	fs.Int64Var(&o.seed, "seed", 20050307, "PRNG seed (same seed, same grid: same output)")
	fs.IntVar(&o.workers, "workers", 0, "goroutines per simulation (0 = GOMAXPROCS); never affects results")
	fs.StringVar(&o.format, "format", "csv", "output format: csv or ndjson")
	fs.StringVar(&o.outPath, "o", "", "output file (default stdout)")
	fs.StringVar(&o.server, "server", "", "dtmb-serve base URL; when set, run the sweep as a remote /v2 job instead of in-process (ignores -workers)")
	return &o
}

func main() {
	fs := flag.NewFlagSet("dtmb-sweep", flag.ExitOnError)
	o := registerFlags(fs)
	_ = fs.Parse(os.Args[1:])

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "dtmb-sweep:", err)
		// A server-rejected request carries the server's trace ID; print it
		// separately so the operator can grep the dtmb-serve access log.
		var apiErr *client.APIError
		if errors.As(err, &apiErr) && apiErr.RequestID != "" {
			fmt.Fprintf(os.Stderr, "dtmb-sweep: server trace id %s (see the dtmb-serve access log)\n", apiErr.RequestID)
		}
		os.Exit(1)
	}

	nVals, err := parseInts(o.ns)
	if err != nil {
		fail(fmt.Errorf("-n: %w", err))
	}
	rowVals, err := parseInts(o.spareRows)
	if err != nil {
		fail(fmt.Errorf("-spare-rows: %w", err))
	}
	pVals, err := parseFloats(o.psList)
	if err != nil {
		fail(fmt.Errorf("-ps: %w", err))
	}

	req := service.SweepRequest{
		Strategies:   splitList(o.strategies),
		Designs:      splitDesigns(o.designs),
		NPrimaries:   nVals,
		Ps:           pVals,
		PMin:         o.pmin,
		PMax:         o.pmax,
		PPoints:      o.points,
		SpareRows:    rowVals,
		DefectModels: splitList(o.defectModels),
		ClusterSize:  o.clusterSize,
		Runs:         o.runs,
		Seed:         o.seed,
		Epsilon:      o.epsilon,
	}

	if o.format != "csv" && o.format != "ndjson" {
		fail(fmt.Errorf("unknown format %q (want csv or ndjson)", o.format))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Validate before touching the output file, so a bad flag cannot
	// truncate a previously generated results file: locally via PlanSweep,
	// remotely by creating the job (server-side validation errors arrive at
	// creation, before any output is written).
	if o.server != "" {
		c := client.New(o.server)
		st, err := c.CreateJob(ctx, req)
		if err != nil {
			fail(err)
		}
		err = writeRecords(o.format, o.outPath, func(emit func(service.SweepRecord) error) error {
			_, err := c.StreamJobResults(ctx, st.ID, 0, emit)
			return err
		})
		if err != nil {
			// The job keeps simulating on the server without us; cancel it
			// so a CLI run that failed anywhere after creation — output
			// file, emitter, stream, or flush — does not leave abandoned
			// work burning remote CPU.
			cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_, _ = c.CancelJob(cctx, st.ID)
			fail(err)
		}
		return
	}

	engine := service.NewEngine(service.EngineConfig{
		DefaultRuns: o.runs,
		Workers:     o.workers,
	})
	plan, err := engine.PlanSweep(req)
	if err != nil {
		fail(err)
	}
	err = writeRecords(o.format, o.outPath, func(emit func(service.SweepRecord) error) error {
		return engine.RunSweep(ctx, plan, func(run []service.SweepRecord) error {
			for _, rec := range run {
				if err := emit(rec); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		fail(err)
	}
}

// writeRecords opens the output target, builds the format's emitter, runs
// the sweep through it, and flushes — the shared scaffold of the local and
// remote paths.
func writeRecords(format, outPath string, run func(emit func(service.SweepRecord) error) error) (err error) {
	var out io.Writer = os.Stdout
	if outPath != "" {
		f, ferr := os.Create(outPath)
		if ferr != nil {
			return ferr
		}
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		out = f
	}
	emit, finish, err := newEmitter(format, out)
	if err != nil {
		return err
	}
	if err := run(emit); err != nil {
		return err
	}
	return finish()
}

// newEmitter returns the per-record writer and a final flush for the format.
func newEmitter(format string, out io.Writer) (func(service.SweepRecord) error, func() error, error) {
	switch format {
	case "csv":
		w := csv.NewWriter(out)
		header := []string{"strategy", "design", "n_primary", "spare_rows",
			"defect_model", "cluster_size", "n_total",
			"p", "runs", "seed", "yield", "ci_lo", "ci_hi", "effective_yield", "no_redundancy"}
		if err := w.Write(header); err != nil {
			return nil, nil, err
		}
		emit := func(r service.SweepRecord) error {
			return w.Write([]string{
				r.Strategy, r.Design,
				strconv.Itoa(r.NPrimary), strconv.Itoa(r.SpareRows),
				r.DefectModel, fmtFloat(r.ClusterSize), strconv.Itoa(r.NTotal),
				fmtFloat(r.P), strconv.Itoa(r.Runs), strconv.FormatInt(r.Seed, 10),
				fmtFloat(r.Yield), fmtFloat(r.CILo), fmtFloat(r.CIHi),
				fmtFloat(r.EffectiveYield), fmtFloat(r.NoRedundancy),
			})
		}
		finish := func() error {
			w.Flush()
			return w.Error()
		}
		return emit, finish, nil
	case "ndjson":
		enc := json.NewEncoder(out)
		return func(r service.SweepRecord) error { return enc.Encode(r) },
			func() error { return nil }, nil
	}
	return nil, nil, fmt.Errorf("unknown format %q (want csv or ndjson)", format)
}

// fmtFloat renders a float with the shortest exact representation, so CSV
// output is byte-stable across runs and platforms.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// splitList splits a comma-separated flag, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// splitDesigns splits a comma-separated design list without breaking names
// like "DTMB(2,6)" apart: commas inside parentheses do not separate.
func splitDesigns(s string) []string {
	var out []string
	depth, start := 0, 0
	flush := func(end int) {
		if part := strings.TrimSpace(s[start:end]); part != "" {
			out = append(out, part)
		}
	}
	for i, r := range s {
		switch r {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				flush(i)
				start = i + 1
			}
		}
	}
	flush(len(s))
	return out
}

// parseInts parses a comma-separated integer list.
func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range splitList(s) {
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseFloats parses a comma-separated float list.
func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range splitList(s) {
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}
