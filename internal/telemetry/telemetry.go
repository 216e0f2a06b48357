// Package telemetry is the dependency-free metrics and tracing substrate of
// the dmfb service stack. It provides three instrument kinds — monotonic
// Counters, settable Gauges, and fixed-bucket Histograms — whose hot paths
// are single atomic operations, safe to call from the zero-allocation
// Monte-Carlo kernel, plus a Registry that renders every registered series
// in the Prometheus text exposition format (served at GET /metrics).
//
// Design constraints, in priority order:
//
//  1. Hot-path cost: Counter.Add, Gauge.Set, and Histogram.Observe perform
//     no allocation and no locking — a handful of atomic ops at most — so
//     instrumenting a per-trial or per-chunk path cannot move the kernel's
//     allocation pins or its throughput cliff.
//  2. No dependencies: the package uses only the standard library, so it
//     can sit below every other internal package (yieldsim, sweep, service)
//     without import cycles or new modules.
//  3. Stable exposition: families and series render sorted, so /metrics
//     output is deterministic for a fixed set of registered series — which
//     is what makes the format testable with a golden-style test.
//
// Callers register instruments once (Registry get-or-creates by name +
// label set and returns the same instance for the same coordinates) and
// keep the returned handle; lookups are mutex-guarded and meant for setup
// or per-request paths, never per-trial ones. Vec variants (CounterVec,
// HistogramVec) cover small dynamic label spaces such as cache kinds or
// strategy × defect-model pairs.
//
// The package also carries the request-scoped trace ID (WithTraceID /
// TraceID): the HTTP middleware stores the X-Request-ID into the request
// context, and every layer below — engine, sweep evaluator, kernel chunk
// spans — reads it back with TraceID, which is how one ID connects an
// access-log line to the kernel chunks that served the request.
package telemetry

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. The zero value is usable
// but unregistered; obtain registered counters from a Registry.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (negative to subtract).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed cumulative buckets. Observe is
// lock- and allocation-free: one atomic add into the first bucket whose
// upper bound admits the value, one into the total count, and a CAS loop
// folding the value into the running sum.
type Histogram struct {
	bounds []float64 // strictly increasing upper bounds; +Inf is implicit
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

// DurationBuckets is the default bucket layout for latency histograms, in
// seconds: 100µs to 10s, roughly exponential. Chunk latencies sit in the
// low milliseconds, point evaluations and admission waits anywhere up to
// seconds, so one layout serves all three.
var DurationBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 10,
}

// newHistogram builds a histogram over the given strictly increasing upper
// bounds (nil means DurationBuckets).
func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DurationBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not increasing at %d: %v", i, bounds))
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Linear scan: bucket counts are small (≤16) and the scan is branch-
	// predictable, beating binary search at this size.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// metricKind tags a family's instrument type.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Label is one key="value" pair of a series.
type Label struct {
	Key, Value string
}

// L is shorthand for one label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// series is one registered time series: its rendered label signature plus
// the value source (exactly one of the fields is set).
type series struct {
	labels  string // rendered `k="v",k2="v2"` signature, keys sorted
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	// fn supplies the value of callback series (counterFunc/gaugeFunc) at
	// scrape time, reading state the owner already maintains.
	fn func() float64
}

// value reads a counter, gauge, or callback series (not a histogram).
func (s *series) value() float64 {
	switch {
	case s.counter != nil:
		return float64(s.counter.Value())
	case s.gauge != nil:
		return float64(s.gauge.Value())
	default:
		return s.fn()
	}
}

// family groups the series of one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	series map[string]*series // label signature → series
}

// Registry holds named metric families and renders them in the Prometheus
// text format. Get-or-create registration is idempotent: the same name and
// label set always return the same instrument instance. A nil *Registry is
// valid everywhere and registers nothing, returning unregistered (but
// usable) instruments, so instrumented code needs no nil checks.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// validName reports whether name is a legal Prometheus metric or label
// name: [a-zA-Z_:][a-zA-Z0-9_:]* (colons for metrics only; we accept them
// for both, which is harmless here).
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// renderLabels builds the canonical signature `k="v",k2="v2"` with keys
// sorted; values are escaped per the exposition format.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if !validName(l.Key) {
			panic(fmt.Sprintf("telemetry: invalid label name %q", l.Key))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabelValue escapes backslash, double quote, and newline as the
// exposition format requires.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// getOrCreate returns the series for (name, labels), creating family and
// series via mk on first sight. Panics on a kind conflict — that is a
// programming error, not a runtime condition.
func (r *Registry) getOrCreate(name, help string, kind metricKind, labels []Label, mk func() *series) *series {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	sig := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as %s, was %s", name, kind, f.kind))
	}
	s, ok := f.series[sig]
	if !ok {
		s = mk()
		s.labels = sig
		f.series[sig] = s
	}
	return s
}

// Counter returns the registered counter for (name, labels), creating it on
// first use. A nil registry returns an unregistered counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return &Counter{}
	}
	s := r.getOrCreate(name, help, kindCounter, labels, func() *series {
		return &series{counter: &Counter{}}
	})
	return s.counter
}

// Gauge returns the registered gauge for (name, labels).
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	s := r.getOrCreate(name, help, kindGauge, labels, func() *series {
		return &series{gauge: &Gauge{}}
	})
	return s.gauge
}

// Histogram returns the registered histogram for (name, labels) with the
// given bucket upper bounds (nil means DurationBuckets). Bounds are fixed
// at first registration; later calls with the same coordinates return the
// existing histogram regardless of the bounds argument.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return newHistogram(bounds)
	}
	s := r.getOrCreate(name, help, kindHistogram, labels, func() *series {
		return &series{hist: newHistogram(bounds)}
	})
	return s.hist
}

// CounterFunc registers a callback counter: fn is read at scrape time, so
// subsystems that already maintain an atomic total (engine completions,
// job counters) expose it without double bookkeeping. fn must be monotonic
// and safe for concurrent use.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.getOrCreate(name, help, kindCounter, labels, func() *series {
		return &series{fn: fn}
	})
}

// GaugeFunc registers a callback gauge, read at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.getOrCreate(name, help, kindGauge, labels, func() *series {
		return &series{fn: fn}
	})
}

// Value returns a counter or gauge family's current value summed over all
// its series — labelled children and callback series alike — which is how
// /v1/stats reads every field from the same source as /metrics. An absent
// family reads 0; a histogram family panics, like a kind conflict at
// registration (read a histogram through its own handle instead).
func (r *Registry) Value(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	f := r.families[name]
	if f == nil {
		r.mu.Unlock()
		return 0
	}
	if f.kind == kindHistogram {
		r.mu.Unlock()
		panic(fmt.Sprintf("telemetry: Value of histogram family %q", name))
	}
	ss := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		ss = append(ss, s)
	}
	r.mu.Unlock()
	// Callbacks run outside the registry lock, as in WritePrometheus.
	var v float64
	for _, s := range ss {
		v += s.value()
	}
	return v
}

// CounterVec is a family of counters over one set of label keys, for small
// dynamic label spaces (cache kinds, HTTP status codes). With() caches its
// children, so a repeat lookup is one lock-free sync.Map read; only a
// child's first use goes through the registry mutex.
type CounterVec struct {
	r         *Registry
	name      string
	help      string
	labelKeys []string
	children  sync.Map // child key → *Counter
}

// CounterVec returns a counter family with the given label keys.
func (r *Registry) CounterVec(name, help string, labelKeys ...string) *CounterVec {
	return &CounterVec{r: r, name: name, help: help, labelKeys: labelKeys}
}

// With returns the counter at the given label values (matching the vec's
// keys positionally). Children are cached in the vec, so a repeated With on
// a hot path (per cache lookup, per sweep point) is one lock-free map read
// rather than a trip through the registry mutex — though keeping the
// returned handle is still cheaper.
func (v *CounterVec) With(labelValues ...string) *Counter {
	key := childKey(labelValues)
	if c, ok := v.children.Load(key); ok {
		return c.(*Counter)
	}
	c := v.r.Counter(v.name, v.help, zip(v.labelKeys, labelValues)...)
	actual, _ := v.children.LoadOrStore(key, c)
	return actual.(*Counter)
}

// HistogramVec is a family of histograms over one set of label keys.
type HistogramVec struct {
	r         *Registry
	name      string
	help      string
	bounds    []float64
	labelKeys []string
	children  sync.Map // child key → *Histogram
}

// HistogramVec returns a histogram family with the given label keys and
// bucket bounds (nil means DurationBuckets).
func (r *Registry) HistogramVec(name, help string, bounds []float64, labelKeys ...string) *HistogramVec {
	return &HistogramVec{r: r, name: name, help: help, bounds: bounds, labelKeys: labelKeys}
}

// With returns the histogram at the given label values, cached like
// CounterVec.With.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	key := childKey(labelValues)
	if h, ok := v.children.Load(key); ok {
		return h.(*Histogram)
	}
	h := v.r.Histogram(v.name, v.help, v.bounds, zip(v.labelKeys, labelValues)...)
	actual, _ := v.children.LoadOrStore(key, h)
	return actual.(*Histogram)
}

// childKey folds label values into one map key. The single-value case —
// every per-request vec in the service — avoids the join allocation.
func childKey(values []string) string {
	if len(values) == 1 {
		return values[0]
	}
	return strings.Join(values, "\x1f")
}

// zip pairs keys with values; a count mismatch is a programming error.
func zip(keys, values []string) []Label {
	if len(keys) != len(values) {
		panic(fmt.Sprintf("telemetry: %d label values for keys %v", len(values), keys))
	}
	ls := make([]Label, len(keys))
	for i := range keys {
		ls[i] = Label{Key: keys[i], Value: values[i]}
	}
	return ls
}

// formatValue renders a sample value the way Prometheus expects.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every registered family in the text exposition
// format (version 0.0.4), families and series in sorted order so the output
// is deterministic for a fixed registration set.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	// Snapshot the series lists under the lock; values are read atomically
	// afterwards (callback series invoke fn outside the registry lock, so a
	// callback may itself take subsystem locks without ordering hazards).
	type familySnap struct {
		f      *family
		series []*series
	}
	snaps := make([]familySnap, 0, len(names))
	for _, name := range names {
		f := r.families[name]
		sigs := make([]string, 0, len(f.series))
		for sig := range f.series {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		ss := make([]*series, 0, len(sigs))
		for _, sig := range sigs {
			ss = append(ss, f.series[sig])
		}
		snaps = append(snaps, familySnap{f: f, series: ss})
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, snap := range snaps {
		f := snap.f
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range snap.series {
			writeSeries(&b, f, s)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeSeries renders one series' sample lines.
func writeSeries(b *strings.Builder, f *family, s *series) {
	name := func(suffix, extraLabels string) string {
		var sb strings.Builder
		sb.WriteString(f.name)
		sb.WriteString(suffix)
		if s.labels != "" || extraLabels != "" {
			sb.WriteByte('{')
			sb.WriteString(s.labels)
			if s.labels != "" && extraLabels != "" {
				sb.WriteByte(',')
			}
			sb.WriteString(extraLabels)
			sb.WriteByte('}')
		}
		return sb.String()
	}
	if s.hist == nil {
		fmt.Fprintf(b, "%s %s\n", name("", ""), formatValue(s.value()))
		return
	}
	h := s.hist
	// Cumulative bucket counts; the +Inf bucket equals the total count.
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s %d\n", name("_bucket", `le="`+formatValue(bound)+`"`), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s %d\n", name("_bucket", `le="+Inf"`), cum)
	fmt.Fprintf(b, "%s %s\n", name("_sum", ""), formatValue(h.Sum()))
	fmt.Fprintf(b, "%s %d\n", name("_count", ""), h.count.Load())
}

// Handler serves the registry in the Prometheus text format — the body of
// GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// traceIDKey is the context key of the request-scoped trace ID.
type traceIDKey struct{}

// WithTraceID returns a context carrying the trace ID (typically the
// sanitized X-Request-ID the HTTP middleware assigned or echoed).
func WithTraceID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, traceIDKey{}, id)
}

// TraceID returns the context's trace ID, or "" when none was attached.
func TraceID(ctx context.Context) string {
	id, _ := ctx.Value(traceIDKey{}).(string)
	return id
}
