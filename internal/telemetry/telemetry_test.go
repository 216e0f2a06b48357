package telemetry

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestCounterGaugeHistogramConcurrent hammers every instrument kind from
// many goroutines; under `go test -race` (the CI default) this proves the
// hot paths are data-race free, and the totals prove no increment is lost.
func TestCounterGaugeHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_counter_total", "test")
	g := r.Gauge("t_gauge", "test")
	h := r.Histogram("t_hist_seconds", "test", []float64{0.001, 0.01, 0.1})
	vec := r.CounterVec("t_vec_total", "test", "kind")

	const workers, perWorker = 8, 10_000
	var wg sync.WaitGroup
	// A concurrent reader: Value snapshots a family while workers register
	// its children and increment them.
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
				if v := r.Value("t_vec_total"); v > workers*perWorker {
					t.Errorf("concurrent Value = %v above the final total", v)
					return
				}
			}
		}
	}()
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			kind := []string{"a", "b"}[w%2]
			vc := vec.With(kind)
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(i%200) / 1000.0)
				vc.Inc()
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-readerDone

	if got := r.Value("t_vec_total"); got != workers*perWorker {
		t.Errorf("Value of the vec family = %v, want %d", got, workers*perWorker)
	}
	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	// Each worker observes sum_{i<10000} (i mod 200)/1000 = 50*199/100*10...
	// compute directly instead:
	var wantSum float64
	for i := 0; i < perWorker; i++ {
		wantSum += float64(i%200) / 1000.0
	}
	wantSum *= workers
	if got := h.Sum(); math.Abs(got-wantSum) > 1e-6*wantSum {
		t.Errorf("histogram sum = %v, want %v", got, wantSum)
	}
	if a, b := vec.With("a").Value(), vec.With("b").Value(); a+b != workers*perWorker {
		t.Errorf("vec totals %d+%d != %d", a, b, workers*perWorker)
	}
}

// TestRegistryGetOrCreateIdempotent pins the registration contract: equal
// coordinates return the same instance, different labels different ones.
func TestRegistryGetOrCreateIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x", L("k", "v"))
	b := r.Counter("x_total", "x", L("k", "v"))
	if a != b {
		t.Error("same coordinates returned distinct counters")
	}
	c := r.Counter("x_total", "x", L("k", "w"))
	if a == c {
		t.Error("distinct labels returned the same counter")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind conflict did not panic")
		}
	}()
	r.Gauge("x_total", "x")
}

// TestNilRegistryIsUsable pins the nil-registry convenience: instruments
// work, exposition writes nothing, no panics anywhere.
func TestNilRegistryIsUsable(t *testing.T) {
	var r *Registry
	c := r.Counter("n_total", "n")
	c.Inc()
	if c.Value() != 1 {
		t.Error("nil-registry counter broken")
	}
	r.Histogram("n_seconds", "n", nil).Observe(0.5)
	r.CounterFunc("n_fn", "n", func() float64 { return 1 })
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Errorf("nil registry exposition: %q, %v", sb.String(), err)
	}
	km := NewKernelMetrics(nil)
	km.Trials.Add(5)
}

// TestWritePrometheusFormat locks the exposition down: deterministic
// ordering, histogram bucket cumulativeness, escaping — verified both
// against exact expected text and by round-tripping through the package's
// own parser.
func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("z_requests_total", "Requests served.", L("code", "200")).Add(3)
	r.Counter("z_requests_total", "Requests served.", L("code", "500")).Add(1)
	r.Gauge("z_temp", "A gauge.").Set(-2)
	h := r.Histogram("z_lat_seconds", "A histogram.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	r.GaugeFunc("a_fn", "Callback gauge.", func() float64 { return 7.5 })
	r.Counter("esc_total", "Escapes.", L("path", `a"b\c`)).Inc()

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := `# HELP a_fn Callback gauge.
# TYPE a_fn gauge
a_fn 7.5
# HELP esc_total Escapes.
# TYPE esc_total counter
esc_total{path="a\"b\\c"} 1
# HELP z_lat_seconds A histogram.
# TYPE z_lat_seconds histogram
z_lat_seconds_bucket{le="0.1"} 1
z_lat_seconds_bucket{le="1"} 2
z_lat_seconds_bucket{le="+Inf"} 3
z_lat_seconds_sum 5.55
z_lat_seconds_count 3
# HELP z_requests_total Requests served.
# TYPE z_requests_total counter
z_requests_total{code="200"} 3
z_requests_total{code="500"} 1
# HELP z_temp A gauge.
# TYPE z_temp gauge
z_temp -2
`
	if got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	exp, err := ParseExposition(strings.NewReader(got))
	if err != nil {
		t.Fatalf("own exposition does not parse: %v", err)
	}
	fams := exp.Families()
	for _, name := range []string{"a_fn", "esc_total", "z_lat_seconds", "z_requests_total", "z_temp"} {
		if !fams[name] {
			t.Errorf("family %s missing from parse: %v", name, fams)
		}
	}
	if exp.Types["z_lat_seconds"] != "histogram" {
		t.Errorf("z_lat_seconds type = %q", exp.Types["z_lat_seconds"])
	}
}

// TestParseExpositionRejectsMalformed drives the validator over the
// malformed payloads the CI exposition check exists to catch.
func TestParseExpositionRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"bad name":          "9bad_name 1\n",
		"no value":          "good_name\n",
		"bad value":         "good_name one\n",
		"unterminated":      "good_name{a=\"b\" 1\n",
		"unquoted label":    "good_name{a=b} 1\n",
		"bad label name":    "good_name{9a=\"b\"} 1\n",
		"bucket without le": "# TYPE h histogram\nh_bucket 1\nh_sum 0\nh_count 1\n",
		"count mismatch": "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\n" +
			"h_sum 1\nh_count 3\n",
		"histogram missing sum": "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n",
	}
	for name, payload := range cases {
		if _, err := ParseExposition(strings.NewReader(payload)); err == nil {
			t.Errorf("%s: parsed without error:\n%s", name, payload)
		}
	}
}

// TestRegistryValue pins the one read /v1/stats makes per field: a family's
// series summed — labelled children, plain instruments and callback series
// alike — with an absent family reading 0 and a histogram family panicking.
func TestRegistryValue(t *testing.T) {
	r := NewRegistry()
	vec := r.CounterVec("v_hits_total", "test", "kind")
	vec.With("a").Add(3)
	vec.With("b").Add(4)
	if got := r.Value("v_hits_total"); got != 7 {
		t.Errorf("labelled children = %v, want 7", got)
	}
	r.Gauge("v_gauge", "test", L("shard", "1")).Set(-2)
	r.GaugeFunc("v_gauge", "test", func() float64 { return 5 }, L("shard", "2"))
	if got := r.Value("v_gauge"); got != 3 {
		t.Errorf("gauge + gauge callback = %v, want 3", got)
	}
	var n float64
	r.CounterFunc("v_fn_total", "test", func() float64 { return n })
	n = 11
	if got := r.Value("v_fn_total"); got != 11 {
		t.Errorf("counter callback = %v, want 11 (read at call time)", got)
	}
	if got := r.Value("v_absent_total"); got != 0 {
		t.Errorf("absent family = %v, want 0", got)
	}
	var nilReg *Registry
	if got := nilReg.Value("v_hits_total"); got != 0 {
		t.Errorf("nil registry = %v, want 0", got)
	}

	r.Histogram("v_seconds", "test", nil).Observe(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Value of a histogram family did not panic")
			}
		}()
		r.Value("v_seconds")
	}()
	// The panic must not leave the registry locked.
	if got := r.Value("v_hits_total"); got != 7 {
		t.Errorf("after histogram panic = %v, want 7", got)
	}
}

// TestHistogramBuckets pins bucket assignment at the boundaries: le is an
// upper (inclusive) bound.
func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	h.Observe(1)   // le="1"
	h.Observe(1.5) // le="2"
	h.Observe(2)   // le="2"
	h.Observe(3)   // +Inf
	if got := h.counts[0].Load(); got != 1 {
		t.Errorf("bucket le=1 count = %d, want 1", got)
	}
	if got := h.counts[1].Load(); got != 2 {
		t.Errorf("bucket le=2 count = %d, want 2", got)
	}
	if got := h.counts[2].Load(); got != 1 {
		t.Errorf("+Inf bucket count = %d, want 1", got)
	}
}

// TestInstrumentHotPathsZeroAlloc pins the instrument hot paths to zero
// allocations — the property that lets the kernel flush counters per chunk
// without moving its allocation pins.
func TestInstrumentHotPathsZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("alloc_total", "x")
	g := r.Gauge("alloc_gauge", "x")
	h := r.Histogram("alloc_seconds", "x", nil)
	if n := testing.AllocsPerRun(200, func() {
		c.Add(2)
		g.Set(3)
		h.Observe(0.004)
	}); n != 0 {
		t.Errorf("instrument hot path allocates %.1f per run, want 0", n)
	}
}

// TestTraceIDRoundTrip pins the context plumbing the middleware and kernel
// spans share.
func TestTraceIDRoundTrip(t *testing.T) {
	ctx := context.Background()
	if got := TraceID(ctx); got != "" {
		t.Errorf("empty context trace ID = %q", got)
	}
	ctx = WithTraceID(ctx, "req-9")
	if got := TraceID(ctx); got != "req-9" {
		t.Errorf("trace ID = %q, want req-9", got)
	}
	if got := TraceID(WithTraceID(context.Background(), "")); got != "" {
		t.Errorf("blank trace ID stored: %q", got)
	}
}
