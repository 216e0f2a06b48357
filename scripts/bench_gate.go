// Command bench_gate is the CI perf-regression gate. It compares a fresh
// `go test -bench` run against the committed BENCH_*.json baselines and
// fails when a benchmark loses more than -max-regress percent throughput
// (ns/op growth) or, on the pinned kernel paths, allocates even one more
// object per op than its baseline — the zero-allocation trial path is a
// hard invariant, not a budget.
//
// Usage, from the repo root:
//
//	go run ./scripts                      # run the benchmarks, then gate
//	go test -run '^$' -bench ... -benchmem -cpu 1 . | go run ./scripts -input -
//	go run ./scripts -lint-metrics http://localhost:8080/metrics
//
// -input reads a previously captured raw benchmark output ("-" = stdin)
// instead of re-running, which is how CI gates one bench pass and how the
// gate's own CI self-test feeds it a doctored slowdown. The regression
// threshold can also be set via BENCH_GATE_MAX_REGRESS (percent). The
// baselines were recorded at GOMAXPROCS=1, so runs use -cpu 1: every extra
// kernel worker adds its own setup allocations to allocs/op.
//
// -lint-metrics switches to exposition mode: fetch or read one Prometheus
// text-format payload, validate it with the telemetry parser, and require
// the dmfb instrument families to be present — the booted-server /metrics
// check in CI.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"

	"dmfb/internal/telemetry"
)

// benchResult is one benchmark measurement, from a baseline or a run.
type benchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// baselineFile mirrors the BENCH_*.json schema written by scripts/bench.sh.
type baselineFile struct {
	Suite      string        `json:"suite"`
	Pattern    string        `json:"pattern"`
	Benchmarks []benchResult `json:"benchmarks"`
}

// defaultBaselines are the committed suite files the gate checks; the
// before/after comparison file (BENCH_kernel_opt.json) has a different
// schema and is derived from these, so it is not a gate input.
var defaultBaselines = []string{"BENCH_hex_cluster.json", "BENCH_v2_api.json"}

// defaultAllocStrict names the pinned kernel paths where any allocs/op
// increase fails the gate, matching the AllocsPerRun pins in the tests.
const defaultAllocStrict = "HexYieldKernel|ClusteredDefectKernel|ClusteredInjector|MonteCarloKernel"

// loadBaselines reads and merges the baseline files into name → result.
func loadBaselines(paths []string) (map[string]benchResult, error) {
	out := make(map[string]benchResult)
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var bf baselineFile
		if err := json.Unmarshal(raw, &bf); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if len(bf.Benchmarks) == 0 {
			return nil, fmt.Errorf("%s: no benchmarks (regenerate with scripts/bench.sh)", path)
		}
		for _, b := range bf.Benchmarks {
			out[b.Name] = b
		}
	}
	return out, nil
}

// parseBenchOutput extracts benchmark lines from raw `go test -bench
// -benchmem` output: name, ns/op, B/op, allocs/op. The GOMAXPROCS suffix
// is stripped so names match the baselines. Repeated measurements of one
// benchmark (-count > 1) keep the fastest ns/op and the worst allocs/op:
// the gate should neither fail on one noisy slow iteration nor pass a real
// allocation on one lucky line.
func parseBenchOutput(r io.Reader) (map[string]benchResult, error) {
	out := make(map[string]benchResult)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 3 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		name := regexp.MustCompile(`-\d+$`).ReplaceAllString(f[0], "")
		cur := benchResult{Name: name}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchmark line %q: value %q: %w", sc.Text(), f[i], err)
			}
			switch f[i+1] {
			case "ns/op":
				cur.NsPerOp = v
			case "B/op":
				cur.BytesPerOp = v
			case "allocs/op":
				cur.AllocsPerOp = v
			}
		}
		if cur.NsPerOp == 0 {
			continue // a metric-less line (e.g. custom units only)
		}
		if prev, ok := out[name]; ok {
			if prev.NsPerOp < cur.NsPerOp {
				cur.NsPerOp = prev.NsPerOp
			}
			if prev.AllocsPerOp > cur.AllocsPerOp {
				cur.AllocsPerOp = prev.AllocsPerOp
			}
			if prev.BytesPerOp > cur.BytesPerOp {
				cur.BytesPerOp = prev.BytesPerOp
			}
		}
		out[name] = cur
	}
	return out, sc.Err()
}

// gate compares current results against the baselines and returns the list
// of violations (empty = pass). Baseline benchmarks missing from the run
// are violations — a silently deleted benchmark must not pass the gate —
// but extra benchmarks in the run are fine.
func gate(baselines, current map[string]benchResult, maxRegressPct float64, allocStrict *regexp.Regexp) []string {
	var violations []string
	for name, base := range baselines {
		cur, ok := current[name]
		if !ok {
			violations = append(violations, fmt.Sprintf(
				"%s: present in baseline but missing from the benchmark run", name))
			continue
		}
		if limit := base.NsPerOp * (1 + maxRegressPct/100); cur.NsPerOp > limit {
			violations = append(violations, fmt.Sprintf(
				"%s: ns/op %.0f exceeds baseline %.0f by more than %.0f%% (limit %.0f)",
				name, cur.NsPerOp, base.NsPerOp, maxRegressPct, limit))
		}
		if allocStrict.MatchString(name) && cur.AllocsPerOp > base.AllocsPerOp {
			violations = append(violations, fmt.Sprintf(
				"%s: allocs/op rose %.0f → %.0f on a pinned kernel path (any increase fails)",
				name, base.AllocsPerOp, cur.AllocsPerOp))
		}
	}
	return violations
}

// benchPattern unions the baselines' selection patterns for a fresh run.
func benchPattern(paths []string) (string, error) {
	var parts []string
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			return "", err
		}
		var bf baselineFile
		if err := json.Unmarshal(raw, &bf); err != nil {
			return "", fmt.Errorf("%s: %w", path, err)
		}
		if bf.Pattern != "" {
			parts = append(parts, bf.Pattern)
		}
	}
	if len(parts) == 0 {
		return "", fmt.Errorf("no baseline declares a bench pattern")
	}
	return strings.Join(parts, "|"), nil
}

// lintMetrics fetches (http[s]://...) or reads one exposition payload,
// validates it, and requires minFamilies dmfb_-prefixed families.
func lintMetrics(target string, minFamilies int, stdout io.Writer) error {
	var body io.ReadCloser
	if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") {
		resp, err := http.Get(target)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return fmt.Errorf("%s: status %s", target, resp.Status)
		}
		body = resp.Body
	} else {
		f, err := os.Open(target)
		if err != nil {
			return err
		}
		body = f
	}
	defer body.Close()
	exp, err := telemetry.ParseExposition(body)
	if err != nil {
		return fmt.Errorf("exposition invalid: %w", err)
	}
	var dmfb int
	for fam := range exp.Families() {
		if strings.HasPrefix(fam, "dmfb_") {
			dmfb++
		}
	}
	fmt.Fprintf(stdout, "exposition valid: %d samples, %d dmfb_ families\n", len(exp.Samples), dmfb)
	if dmfb < minFamilies {
		return fmt.Errorf("only %d dmfb_ families exposed, want at least %d", dmfb, minFamilies)
	}
	return nil
}

func main() {
	var (
		input       = flag.String("input", "", "raw `go test -bench -benchmem` output to gate (\"-\" = stdin); empty = run the benchmarks now")
		maxRegress  = flag.Float64("max-regress", 15, "max tolerated ns/op growth in percent (env BENCH_GATE_MAX_REGRESS overrides)")
		allocRe     = flag.String("alloc-strict", defaultAllocStrict, "regexp of benchmarks where any allocs/op increase fails")
		count       = flag.Int("count", 3, "benchmark repetitions when the gate runs the benchmarks itself")
		lintTarget  = flag.String("lint-metrics", "", "validate a Prometheus exposition (URL or file) instead of gating benchmarks")
		minFamilies = flag.Int("min-families", 10, "with -lint-metrics: minimum dmfb_ metric families required")
	)
	flag.Parse()
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "bench_gate:", err)
		os.Exit(1)
	}

	if *lintTarget != "" {
		if err := lintMetrics(*lintTarget, *minFamilies, os.Stdout); err != nil {
			fail(err)
		}
		return
	}

	if env := os.Getenv("BENCH_GATE_MAX_REGRESS"); env != "" {
		v, err := strconv.ParseFloat(env, 64)
		if err != nil {
			fail(fmt.Errorf("BENCH_GATE_MAX_REGRESS %q: %w", env, err))
		}
		*maxRegress = v
	}
	strict, err := regexp.Compile(*allocRe)
	if err != nil {
		fail(fmt.Errorf("-alloc-strict: %w", err))
	}
	baselines, err := loadBaselines(defaultBaselines)
	if err != nil {
		fail(err)
	}

	var raw io.Reader
	switch *input {
	case "-":
		raw = os.Stdin
	case "":
		pattern, err := benchPattern(defaultBaselines)
		if err != nil {
			fail(err)
		}
		cmd := exec.Command("go", "test", "-run", "^$",
			"-bench", pattern, "-benchmem", "-count", strconv.Itoa(*count), "-cpu", "1", ".")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fail(fmt.Errorf("benchmark run: %w", err))
		}
		os.Stdout.Write(out)
		raw = strings.NewReader(string(out))
	default:
		f, err := os.Open(*input)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		raw = f
	}
	current, err := parseBenchOutput(raw)
	if err != nil {
		fail(err)
	}
	if len(current) == 0 {
		fail(fmt.Errorf("no benchmark lines found in input"))
	}

	violations := gate(baselines, current, *maxRegress, strict)
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "bench_gate: FAIL:", v)
		}
		os.Exit(1)
	}
	fmt.Printf("bench_gate: PASS: %d baseline benchmarks within %.0f%% ns/op, kernel allocs flat\n",
		len(baselines), *maxRegress)
}
