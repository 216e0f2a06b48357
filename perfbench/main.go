// Command perfbench is the yield service's benchmark. It drives one named
// workload through the public serving surface — service.NewHandler over
// httptest, the typed client, the dispatch coordinator and its workers, and
// the durable job store — checks every output for correctness, and prints
// the result as one JSON object on the last line of standard output:
// end-to-end metrics by default, per-layer metrics with --trace 1.
//
//	bash perfbench/run.sh --workload evaluate_mixed --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload distributed_job --seed 1 --seconds 10 --trace 1
//	bash perfbench/run.sh compare before.jsonl after.jsonl
//
// The line before the result is the machine record (Go version, platform,
// CPU model, nproc, GOMAXPROCS, repeat counts and workload seed). --out
// appends the full record to a JSON-lines file that `compare` reads.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// small shrinks every workload's inputs so a run takes a fraction of a
	// second; the benchmark's own test uses it.
	small bool
	// workdir holds durable-store directories and, by default, span logs.
	workdir string
	// cpuProfile and memProfile, when set, receive pprof profiles of the
	// untraced measured phase.
	cpuProfile, memProfile string
	// out, when set, gets the full record appended as one JSON line.
	out string
	// spans is where a traced run writes its span log:
	// <workdir>/spans-<workload>-<seed>.jsonl.
	spans string
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's contract line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// machine identifies where a result was measured; results from different
// machines are not compared.
type machine struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// record is a result with its provenance, as printed and as --out stores it.
type record struct {
	Machine      machine `json:"machine"`
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Trace        bool    `json:"trace"`
	Seconds      float64 `json:"seconds"`
	SetupRepeats int     `json:"setup_repeats"`
	Passes       int     `json:"passes"`
	Result       result  `json:"result"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	rec, err := run(ctx, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, msg := range rec.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
	if o.out != "" {
		if err := appendRecord(o.out, rec.record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	head, _ := json.Marshal(struct {
		Machine      machine `json:"machine"`
		Workload     string  `json:"workload"`
		Seed         int64   `json:"seed"`
		SetupRepeats int     `json:"setup_repeats"`
		Passes       int     `json:"passes"`
	}{rec.Machine, rec.Workload, rec.Seed, rec.SetupRepeats, rec.Passes})
	line, _ := json.Marshal(rec.Result)
	fmt.Println(string(head))
	fmt.Println(string(line))
	if !rec.Result.Correct {
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long the measured phase runs, in whole passes of the workload's nominal length")
	fs.IntVar(&trace, "trace", 0, "1 prints per-layer metrics from a traced run")
	fs.StringVar(&o.workdir, "workdir", filepath.Join(".bench_build", "run"), "directory for durable stores and span logs")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the untraced measured phase")
	fs.StringVar(&o.memProfile, "memprofile", "", "write an allocation profile of the untraced measured phase")
	fs.StringVar(&o.out, "out", "", "append the full record to this JSON-lines file")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if o.seconds <= 0 {
		return o, errors.New("--seconds must be positive")
	}
	o.trace = trace == 1
	return o, nil
}

// outcome is a finished run: its record plus the first few check failures.
type outcome struct {
	record
	failures []string
}

// run performs one invocation: an untraced measurement, or a traced run.
func run(ctx context.Context, o options) (outcome, error) {
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return outcome{}, err
	}
	o.spans = filepath.Join(o.workdir, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
	var (
		out outcome
		err error
	)
	if o.trace {
		out, err = runTraced(ctx, o)
	} else {
		out, err = runUntraced(ctx, o)
	}
	if err != nil {
		return outcome{}, err
	}
	out.Machine = thisMachine()
	out.Workload, out.Seed, out.Trace, out.Seconds = o.workload, o.seed, o.trace, o.seconds
	return out, nil
}

func thisMachine() machine {
	return machine{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("append record: %w", err)
	}
	return f.Close()
}
