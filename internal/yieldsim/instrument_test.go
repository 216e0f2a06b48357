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

	"dmfb/internal/layout"
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

// TestKernelMetricsAccounting checks the bookkeeping identities: every trial
// is counted once, and the all-healthy/screened/matcher split partitions the
// trials for the Bernoulli path. The scalar path draws the same fault sets
// one trial at a time, so it screens nothing and sends to the matcher
// exactly the trials the batch path screened or matched. The shifted
// strategy partitions its trials into all-healthy and screened alone.
func TestKernelMetricsAccounting(t *testing.T) {
	arr, err := layout.BuildWithPrimaryTarget(layout.DTMB26(), 60)
	if err != nil {
		t.Fatal(err)
	}
	estimate := func(scalar bool) *telemetry.KernelMetrics {
		t.Helper()
		mc := NewMonteCarlo(5)
		mc.Runs = 2500
		mc.Metrics = telemetry.NewKernelMetrics(telemetry.NewRegistry())
		mc.forceScalar = scalar
		if _, err := mc.Yield(arr, 0.9); err != nil {
			t.Fatal(err)
		}
		return mc.Metrics
	}
	m := estimate(false)
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
	s := estimate(true)
	if s.Screened.Value() != 0 {
		t.Errorf("scalar path screened %d trials, want 0", s.Screened.Value())
	}
	if s.AllHealthy.Value() != m.AllHealthy.Value() ||
		s.MatcherInvocations.Value() != m.Screened.Value()+m.MatcherInvocations.Value() {
		t.Errorf("scalar all_healthy %d, matcher %d; batch all_healthy %d, screened+matcher %d",
			s.AllHealthy.Value(), s.MatcherInvocations.Value(),
			m.AllHealthy.Value(), m.Screened.Value()+m.MatcherInvocations.Value())
	}

	// The shifted column walk settles every faulty trial on the column
	// plane: none reaches the matcher.
	pl, err := sqgrid.PlacementWithPrimaryTarget(60, 1)
	if err != nil {
		t.Fatal(err)
	}
	mc := NewMonteCarlo(5)
	mc.Runs = 2500
	mc.Metrics = telemetry.NewKernelMetrics(telemetry.NewRegistry())
	if _, err := mc.ShiftedYield(pl, 0.99); err != nil {
		t.Fatal(err)
	}
	sh := mc.Metrics
	if got := sh.Trials.Value(); got != 2500 {
		t.Errorf("shifted trials counter = %d, want 2500", got)
	}
	if sh.MatcherInvocations.Value() != 0 {
		t.Errorf("shifted matcher = %d, want 0", sh.MatcherInvocations.Value())
	}
	if sh.AllHealthy.Value()+sh.Screened.Value() != 2500 || sh.AllHealthy.Value() == 0 || sh.Screened.Value() == 0 {
		t.Errorf("shifted all_healthy %d + screened %d: want both tiers used, summing to 2500 trials",
			sh.AllHealthy.Value(), sh.Screened.Value())
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
