package yieldsim

// Kernel instrumentation tests: attaching a telemetry bundle and a debug
// logger must not change a single estimate bit (the chunk-seeded determinism
// contract), must account for every trial exactly once, and must emit chunk
// spans carrying the caller's trace ID.

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"testing"

	"dmfb/internal/defects"
	"dmfb/internal/layout"
	"dmfb/internal/reconfig"
	"dmfb/internal/sqgrid"
	"dmfb/internal/telemetry"
)

// TestInstrumentationDoesNotPerturbEstimate pins that wiring Metrics and a
// debug Logger into the kernel leaves the estimate bit-identical: the
// instrumentation observes the trial stream, it never participates in it.
func TestInstrumentationDoesNotPerturbEstimate(t *testing.T) {
	arr, err := layout.BuildWithPrimaryTarget(layout.DTMB26(), 80)
	if err != nil {
		t.Fatal(err)
	}
	plain := NewMonteCarlo(21)
	plain.Runs = 3000
	plain.Workers = 4
	want, err := plain.Yield(arr, 0.94)
	if err != nil {
		t.Fatal(err)
	}

	r := telemetry.NewRegistry()
	inst := NewMonteCarlo(21)
	inst.Runs = 3000
	inst.Workers = 4
	inst.Metrics = telemetry.NewKernelMetrics(r)
	inst.Logger = slog.New(slog.NewJSONHandler(&bytes.Buffer{}, &slog.HandlerOptions{Level: slog.LevelDebug}))
	got, err := inst.Yield(arr, 0.94)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("instrumented estimate %+v != plain %+v", got, want)
	}
}

// TestKernelMetricsAccounting checks the bookkeeping identities on the
// Bernoulli path: every trial is counted once, the all-healthy/screened/
// matcher split partitions the trials with both faulty tiers in use, and
// every chunk is timed once.
func TestKernelMetricsAccounting(t *testing.T) {
	arr, err := layout.BuildWithPrimaryTarget(layout.DTMB26(), 60)
	if err != nil {
		t.Fatal(err)
	}
	mc := NewMonteCarlo(5)
	mc.Runs = 2500
	mc.Metrics = telemetry.NewKernelMetrics(telemetry.NewRegistry())
	if _, err := mc.Yield(arr, 0.9); err != nil {
		t.Fatal(err)
	}
	m := mc.Metrics
	if got := m.Trials.Value(); got != 2500 {
		t.Errorf("trials counter = %d, want 2500", got)
	}
	if sum := m.AllHealthy.Value() + m.Screened.Value() + m.MatcherInvocations.Value(); sum != 2500 {
		t.Errorf("all_healthy %d + screened %d + matcher %d != 2500 trials",
			m.AllHealthy.Value(), m.Screened.Value(), m.MatcherInvocations.Value())
	}
	if m.Screened.Value() == 0 || m.MatcherInvocations.Value() == 0 {
		t.Errorf("screened %d, matcher %d: want both tiers used at p = 0.9",
			m.Screened.Value(), m.MatcherInvocations.Value())
	}
	const wantChunks = 10 // 9 full chunks of DefaultChunkSize + a 196-trial tail
	if got := m.ChunkSeconds.Count(); got != wantChunks {
		t.Errorf("chunk histogram count = %d, want %d", got, wantChunks)
	}
}

// TestKernelCountersPartitionEveryProgram runs every production trial
// program with Metrics attached and checks that the trials counter equals
// the runs and that all_healthy + screened + matcher partitions them. The
// shifted column walk settles every faulty trial on the column plane, so
// none of its trials reaches the matcher, and at the chosen p both its
// all-healthy and screened tiers are in use.
func TestKernelCountersPartitionEveryProgram(t *testing.T) {
	arr, err := layout.BuildWithPrimaryTarget(layout.DTMB26(), 60)
	if err != nil {
		t.Fatal(err)
	}
	hex, err := layout.BuildHexagonWithPrimaryTarget(layout.DTMB26(), 60)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := sqgrid.PlacementWithPrimaryTarget(60, 1)
	if err != nil {
		t.Fatal(err)
	}
	used := make([]bool, arr.NumCells())
	for i, id := range arr.Primaries() {
		used[id] = i%3 != 0
	}
	clustered := defects.Model{Clustered: true, ClusterSize: 4}
	ctx := context.Background()
	fixed := func(domain defects.Domain, scope reconfig.Scope) func(mc *MonteCarlo) (Result, error) {
		return func(mc *MonteCarlo) (Result, error) {
			if scope == reconfig.RepairUsed {
				mc.Scope, mc.Used = scope, used
			}
			return mc.YieldFixedFaults(arr, 10, domain)
		}
	}
	const runs = 2500
	for _, tc := range []struct {
		name    string
		shifted bool
		eval    func(mc *MonteCarlo) (Result, error)
	}{
		{"local/bernoulli-scan-side", false, func(mc *MonteCarlo) (Result, error) { return mc.Yield(arr, 0.55) }},
		{"local/bernoulli-skip-side", false, func(mc *MonteCarlo) (Result, error) { return mc.Yield(arr, 0.95) }},
		{"hex/clustered", false, func(mc *MonteCarlo) (Result, error) {
			return mc.YieldModelContext(ctx, hex, 0.95, clustered)
		}},
		{"fixed-count/all-cells/repair-all", false, fixed(defects.AllCells, reconfig.RepairAll)},
		{"fixed-count/all-cells/repair-used", false, fixed(defects.AllCells, reconfig.RepairUsed)},
		{"fixed-count/primaries-only/repair-all", false, fixed(defects.PrimariesOnly, reconfig.RepairAll)},
		{"fixed-count/primaries-only/repair-used", false, fixed(defects.PrimariesOnly, reconfig.RepairUsed)},
		{"shifted/bernoulli", true, func(mc *MonteCarlo) (Result, error) { return mc.ShiftedYield(pl, 0.99) }},
		{"shifted/clustered", true, func(mc *MonteCarlo) (Result, error) {
			return mc.ShiftedYieldModelContext(ctx, pl, 0.95, clustered)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mc := NewMonteCarlo(5)
			mc.Runs = runs
			mc.Metrics = telemetry.NewKernelMetrics(telemetry.NewRegistry())
			if _, err := tc.eval(mc); err != nil {
				t.Fatal(err)
			}
			m := mc.Metrics
			healthy, screened, matcher := m.AllHealthy.Value(), m.Screened.Value(), m.MatcherInvocations.Value()
			if got := m.Trials.Value(); got != runs {
				t.Errorf("trials counter = %d, want %d", got, runs)
			}
			if healthy+screened+matcher != runs {
				t.Errorf("all_healthy %d + screened %d + matcher %d != %d trials", healthy, screened, matcher, runs)
			}
			if tc.shifted && (matcher != 0 || healthy == 0 || screened == 0) {
				t.Errorf("shifted all_healthy %d, screened %d, matcher %d: want matcher 0 and both other tiers used",
					healthy, screened, matcher)
			}
		})
	}
}

// TestKernelChunkSpansCarryTraceID runs an estimate with a debug logger and
// a trace ID in the context, then checks every kernel_chunk span names that
// trace ID — the property the service relies on to tie a slow request to
// its kernel work.
func TestKernelChunkSpansCarryTraceID(t *testing.T) {
	arr, err := layout.BuildWithPrimaryTarget(layout.DTMB26(), 40)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	mc := NewMonteCarlo(3)
	mc.Runs = 2*DefaultChunkSize + 88
	mc.Workers = 1
	mc.Logger = slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	ctx := telemetry.WithTraceID(context.Background(), "trace-xyz")
	if _, err := mc.YieldContext(ctx, arr, 0.95); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&buf)
	spans := 0
	for dec.More() {
		var ev struct {
			Msg     string `json:"msg"`
			TraceID string `json:"trace_id"`
			Trials  int    `json:"trials"`
		}
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		if ev.Msg != "kernel_chunk" {
			continue
		}
		spans++
		if ev.TraceID != "trace-xyz" {
			t.Errorf("span trace_id = %q, want trace-xyz", ev.TraceID)
		}
		if ev.Trials <= 0 {
			t.Errorf("span trials = %d, want > 0", ev.Trials)
		}
	}
	if spans != 3 {
		t.Errorf("kernel_chunk spans = %d, want 3 (two full chunks and a tail)", spans)
	}
}

// TestInfoLevelLoggerEmitsNoSpans pins the cost model: a logger at info
// level attached to the kernel produces zero output.
func TestInfoLevelLoggerEmitsNoSpans(t *testing.T) {
	arr, err := layout.BuildWithPrimaryTarget(layout.DTMB26(), 40)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	mc := NewMonteCarlo(3)
	mc.Runs = 400
	mc.Logger = slog.New(slog.NewJSONHandler(&buf, nil)) // info default
	if _, err := mc.Yield(arr, 0.95); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("info-level logger received kernel output: %q", buf.String())
	}
}
