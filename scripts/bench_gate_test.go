package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var strictKernel = regexp.MustCompile(defaultAllocStrict)

const rawBench = `goos: linux
goarch: amd64
BenchmarkHexYieldKernel-8              994     1225006 ns/op     10440 B/op      29 allocs/op
BenchmarkHexYieldKernel-8             1010     1190000 ns/op     10440 B/op      29 allocs/op
BenchmarkClusteredInjector-8        152269        8287 ns/op         0 B/op       0 allocs/op
BenchmarkJobStore-8                   2276      526698 ns/op    195578 B/op     866 allocs/op
PASS
`

func parsedFixture(t *testing.T) map[string]benchResult {
	t.Helper()
	got, err := parseBenchOutput(strings.NewReader(rawBench))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestParseBenchOutput(t *testing.T) {
	got := parsedFixture(t)
	if len(got) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(got))
	}
	hex := got["BenchmarkHexYieldKernel"]
	// Two measurements: fastest ns/op wins, worst allocs/op wins.
	if hex.NsPerOp != 1190000 {
		t.Errorf("hex ns/op = %v, want the fastest of the two runs (1190000)", hex.NsPerOp)
	}
	if hex.AllocsPerOp != 29 {
		t.Errorf("hex allocs/op = %v, want 29", hex.AllocsPerOp)
	}
	if inj := got["BenchmarkClusteredInjector"]; inj.AllocsPerOp != 0 || inj.NsPerOp != 8287 {
		t.Errorf("injector = %+v", inj)
	}
}

func TestGatePassesWithinThreshold(t *testing.T) {
	base := map[string]benchResult{
		"BenchmarkHexYieldKernel":    {Name: "BenchmarkHexYieldKernel", NsPerOp: 1225006, AllocsPerOp: 29},
		"BenchmarkClusteredInjector": {Name: "BenchmarkClusteredInjector", NsPerOp: 8287, AllocsPerOp: 0},
		"BenchmarkJobStore":          {Name: "BenchmarkJobStore", NsPerOp: 500000, AllocsPerOp: 800},
	}
	// JobStore came in 5% slower and with more allocs: inside the ns/op
	// budget, and not a pinned kernel path, so allocs may move.
	if v := gate(base, parsedFixture(t), 15, strictKernel); len(v) != 0 {
		t.Errorf("gate reported violations on a healthy run: %v", v)
	}
}

func TestGateFailsOnThroughputRegression(t *testing.T) {
	base := map[string]benchResult{
		"BenchmarkHexYieldKernel": {Name: "BenchmarkHexYieldKernel", NsPerOp: 900000, AllocsPerOp: 29},
	}
	v := gate(base, parsedFixture(t), 15, strictKernel)
	if len(v) != 1 || !strings.Contains(v[0], "ns/op") {
		t.Errorf("want one ns/op violation for a 32%% slowdown, got %v", v)
	}
}

func TestGateFailsOnAnyKernelAllocIncrease(t *testing.T) {
	base := map[string]benchResult{
		"BenchmarkClusteredInjector": {Name: "BenchmarkClusteredInjector", NsPerOp: 8287, AllocsPerOp: 0},
	}
	current := map[string]benchResult{
		"BenchmarkClusteredInjector": {Name: "BenchmarkClusteredInjector", NsPerOp: 8000, AllocsPerOp: 1},
	}
	v := gate(base, current, 15, strictKernel)
	if len(v) != 1 || !strings.Contains(v[0], "allocs/op") {
		t.Errorf("want one allocs/op violation for 0 → 1 on a kernel path, got %v", v)
	}
}

func TestGateFailsOnMissingBenchmark(t *testing.T) {
	base := map[string]benchResult{
		"BenchmarkVanished": {Name: "BenchmarkVanished", NsPerOp: 100, AllocsPerOp: 0},
	}
	v := gate(base, parsedFixture(t), 15, strictKernel)
	if len(v) != 1 || !strings.Contains(v[0], "missing") {
		t.Errorf("want one missing-benchmark violation, got %v", v)
	}
}

// TestAllocStrictPinsHaveBaselines requires every alternative of the
// default alloc-strict pattern to name at least one committed baseline
// benchmark: gate only checks benchmarks present in a baseline, so an
// alternative with no baseline entry is a pin that never fires.
func TestAllocStrictPinsHaveBaselines(t *testing.T) {
	var paths []string
	for _, p := range defaultBaselines {
		paths = append(paths, filepath.Join("..", p))
	}
	baselines, err := loadBaselines(paths)
	if err != nil {
		t.Fatal(err)
	}
	for _, alt := range strings.Split(defaultAllocStrict, "|") {
		re := regexp.MustCompile(alt)
		found := false
		for name := range baselines {
			if re.MatchString(name) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("alloc-strict pin %q matches no benchmark in %v", alt, defaultBaselines)
		}
	}
}

func TestLintMetricsValidatesExposition(t *testing.T) {
	dir := t.TempDir()
	good := dir + "/good.prom"
	writeFile(t, good, `# HELP dmfb_kernel_trials_total Trials.
# TYPE dmfb_kernel_trials_total counter
dmfb_kernel_trials_total 42
`)
	var out strings.Builder
	if err := lintMetrics(good, 1, &out); err != nil {
		t.Errorf("valid exposition rejected: %v", err)
	}
	if err := lintMetrics(good, 5, &out); err == nil {
		t.Error("1 family passed a min-families=5 requirement")
	}
	bad := dir + "/bad.prom"
	writeFile(t, bad, "dmfb_broken{le=0.5} not-a-number\n")
	if err := lintMetrics(bad, 1, &out); err == nil {
		t.Error("malformed exposition accepted")
	}
}

func writeFile(t *testing.T, path, body string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}
