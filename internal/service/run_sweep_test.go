package service

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"dmfb/internal/core"
	"dmfb/internal/sweep"
)

// scenarioPlan builds a plan over the given scenarios directly, bypassing
// PlanSweep's validation, so a test can place a point that fails to
// evaluate at a chosen index.
func scenarioPlan(sp core.SimParams, scs ...sweep.Scenario) *SweepPlan {
	pts := make([]sweep.Point, len(scs))
	for i, sc := range scs {
		pts[i] = sweep.Point{Index: i, Scenario: sc}
	}
	return &SweepPlan{points: pts, sp: sp}
}

// slowPoint is simulated: at the run counts these tests use it finishes
// well after a closed-form fastPoint started with it.
func slowPoint(p float64) sweep.Scenario {
	return sweep.Scenario{Strategy: sweep.Local, Design: "DTMB(2,6)", NPrimary: 100, P: p, DefectModel: sweep.Independent}
}

func fastPoint(p float64) sweep.Scenario {
	return sweep.Scenario{Strategy: sweep.None, NPrimary: 100, P: p, DefectModel: sweep.Independent}
}

// failingPoint has a strategy no evaluator knows: it fails at once.
func failingPoint(name string) sweep.Scenario {
	return sweep.Scenario{Strategy: sweep.Strategy(name), NPrimary: 100, P: 0.9, DefectModel: sweep.Independent}
}

// collectRange runs [start, end) of plan and returns the indices of the
// records it emitted, in emission order, with the sweep's error.
func collectRange(ctx context.Context, e *Engine, plan *SweepPlan, start, end int) ([]int, error) {
	var got []int
	err := e.RunSweepRange(ctx, plan, start, end, func(run []SweepRecord) error {
		for _, rec := range run {
			got = append(got, rec.Index)
		}
		return nil
	})
	return got, err
}

func TestRunEmitsInPointOrder(t *testing.T) {
	// The slow simulated points come first, so later points finish first;
	// records still come out in point order, with their global indices.
	var scs []sweep.Scenario
	for _, p := range []float64{0.90, 0.92, 0.94, 0.96} {
		scs = append(scs, slowPoint(p))
	}
	for i := range 12 {
		scs = append(scs, fastPoint(0.9+float64(i)/200))
	}
	plan := scenarioPlan(core.SimParams{Runs: 20000, Seed: 1}, scs...)
	e := NewEngine(EngineConfig{MaxConcurrent: 8})
	for _, start := range []int{0, 2} {
		got, err := collectRange(context.Background(), e, plan, start, len(scs))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(scs)-start {
			t.Fatalf("start %d: emitted %d of %d points", start, len(got), len(scs)-start)
		}
		for i, idx := range got {
			if idx != start+i {
				t.Fatalf("start %d: emission order %v not ascending from %d", start, got, start)
			}
		}
	}
}

func TestRunResultsIndependentOfWorkerCount(t *testing.T) {
	req := SweepRequest{
		Strategies: []string{"none", "local", "shifted"},
		Designs:    []string{"DTMB(2,6)", "DTMB(4,4)"},
		NPrimaries: []int{24},
		Ps:         []float64{0.9, 0.97},
		SpareRows:  []int{1},
		Runs:       300,
		Seed:       42,
	}
	collect := func(workers int) []SweepRecord {
		e := NewEngine(EngineConfig{MaxConcurrent: workers})
		plan, err := e.PlanSweep(req)
		if err != nil {
			t.Fatal(err)
		}
		var out []SweepRecord
		if err := e.RunSweep(context.Background(), plan, func(run []SweepRecord) error {
			out = append(out, run...)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	one, four := collect(1), collect(4)
	if len(one) != 8 || !reflect.DeepEqual(one, four) {
		t.Fatalf("results differ across worker counts:\n1: %+v\n4: %+v", one, four)
	}
}

func TestRunFirstErrorWinsAndStopsEmission(t *testing.T) {
	// Points 5 and 9 fail; only the lowest failure is returned, and the
	// records before it are all emitted.
	var scs []sweep.Scenario
	for i := range 12 {
		scs = append(scs, fastPoint(0.9+float64(i)/200))
	}
	scs[5], scs[9] = failingPoint("bogus5"), failingPoint("bogus9")
	plan := scenarioPlan(core.SimParams{Runs: 200, Seed: 1}, scs...)
	e := NewEngine(EngineConfig{MaxConcurrent: 4})
	for range 20 {
		got, err := collectRange(context.Background(), e, plan, 0, len(scs))
		if err == nil || !strings.Contains(err.Error(), "bogus5") {
			t.Fatalf("err = %v, want point 5's", err)
		}
		if !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4}) {
			t.Fatalf("emitted %v, want exactly indices 0..4", got)
		}
	}
}

func TestRunEmitErrorCancels(t *testing.T) {
	var scs []sweep.Scenario
	for i := range 8 {
		scs = append(scs, fastPoint(0.9+float64(i)/100))
	}
	plan := scenarioPlan(core.SimParams{Runs: 200, Seed: 1}, scs...)
	e := NewEngine(EngineConfig{MaxConcurrent: 2})
	stop := errors.New("client gone")
	emitted := 0
	err := e.RunSweep(context.Background(), plan, func(run []SweepRecord) error {
		if emitted += len(run); emitted > 2 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatalf("err = %v, want emit error", err)
	}
}

func TestRunCancellationLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	var scs []sweep.Scenario
	for i := range 40 {
		scs = append(scs, slowPoint(0.9+float64(i)/400))
	}
	plan := scenarioPlan(core.SimParams{Runs: 200000, Seed: 1}, scs...) // long enough to be mid-flight
	e := NewEngine(EngineConfig{MaxConcurrent: 4})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := collectRange(ctx, e, plan, 0, len(scs))
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunSweepRange did not return after cancellation")
	}
	// The fold joins its workers before returning; give the runtime a
	// moment to retire exiting goroutines, then require the count to come
	// back down.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after cancellation", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestRunRealErrorNotMaskedByCancellation(t *testing.T) {
	// Point 3 fails at once while the slower points before it still run:
	// they must not be cancelled into context errors that mask it. The
	// records before the failing point are emitted and its error returned.
	scs := []sweep.Scenario{slowPoint(0.90), slowPoint(0.92), slowPoint(0.94),
		failingPoint("bogus"), slowPoint(0.96), slowPoint(0.98)}
	plan := scenarioPlan(core.SimParams{Runs: 20000, Seed: 1}, scs...)
	e := NewEngine(EngineConfig{MaxConcurrent: 4})
	got, err := collectRange(context.Background(), e, plan, 0, len(scs))
	if err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("err = %v, want the failing point's", err)
	}
	if !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("emitted %v, want exactly indices 0..2", got)
	}
}

func TestRunSweepTimesPoints(t *testing.T) {
	// Each successful point is timed under its strategy × defect model,
	// cache hits included; a failed point is not recorded.
	plan := scenarioPlan(core.SimParams{Runs: 200, Seed: 1},
		fastPoint(0.9), slowPoint(0.9), slowPoint(0.9), failingPoint("bogus"))
	e := NewEngine(EngineConfig{MaxConcurrent: 1})
	if _, err := collectRange(context.Background(), e, plan, 0, 4); err == nil {
		t.Fatal("bogus strategy evaluated without error")
	}
	for strategy, want := range map[string]float64{"none": 1, "local": 2, "bogus": -1} {
		name := `dmfb_sweep_point_duration_seconds_count{defect_model="independent",strategy="` + strategy + `"}`
		if got := metricValue(t, e, name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}
