package telemetry

// Metric bundles: pre-registered instrument sets for the subsystems whose
// hot paths cannot afford registry lookups. Each bundle is built once
// (typically at engine construction) and handed down as a pointer; a nil
// bundle disables that subsystem's instrumentation entirely, which is what
// keeps the library usable — and the kernel benchmark numbers honest —
// outside the service.

// KernelMetrics is the Monte-Carlo kernel's instrument set. The kernel
// flushes per-worker probe counts into these once per chunk (never per
// trial), so steady-state trials stay allocation- and atomic-free.
type KernelMetrics struct {
	// Trials counts completed Monte-Carlo trials across all estimates.
	Trials *Counter
	// AllHealthy counts trials whose fault draw came up empty, taking the
	// all-healthy fast path that skips the matcher.
	AllHealthy *Counter
	// Screened counts faulty trials a word-parallel batch screen settled
	// without a per-trial decision: by exclusive spares, by the exact
	// degree-1 peeling rounds that follow them, or by the shifted strategy's
	// column walk.
	Screened *Counter
	// MatcherInvocations counts trials decided one at a time by the
	// reconfiguration matcher.
	MatcherInvocations *Counter
	// ChunkSeconds observes the wall time of each completed kernel chunk;
	// its Count is the number of chunks executed.
	ChunkSeconds *Histogram
	// EarlyStops counts precision-targeted estimates that met their epsilon
	// before exhausting the trial budget; RealizedRuns observes the realized
	// trial count of every precision-targeted estimate (early-stopped or
	// budget-exhausted), so the two together say how often and how hard
	// adaptive sampling pays off.
	EarlyStops   *Counter
	RealizedRuns *Histogram
}

// realizedRunsBuckets spans the realized-trial-count range from a single
// chunk to the MaxRuns service cap in decade-ish steps.
var realizedRunsBuckets = []float64{256, 1024, 4096, 16384, 65536, 262144, 1048576}

// NewKernelMetrics registers the kernel instrument set on r (nil r yields
// working, unregistered instruments).
func NewKernelMetrics(r *Registry) *KernelMetrics {
	return &KernelMetrics{
		Trials:             r.Counter("dmfb_kernel_trials_total", "Monte-Carlo trials completed."),
		AllHealthy:         r.Counter("dmfb_kernel_trials_all_healthy_total", "Trials that drew zero faults and skipped the matcher."),
		Screened:           r.Counter("dmfb_kernel_trials_screened_total", "Faulty trials the batch screen settled without the matcher, by exclusive spares, degree-1 peeling or the shifted column walk."),
		MatcherInvocations: r.Counter("dmfb_kernel_matcher_invocations_total", "Trials decided one at a time by the reconfiguration matcher."),
		ChunkSeconds:       r.Histogram("dmfb_kernel_chunk_duration_seconds", "Wall time of one Monte-Carlo kernel chunk.", nil),
		EarlyStops:         r.Counter("dmfb_kernel_early_stops_total", "Precision-targeted estimates that met epsilon before the trial budget."),
		RealizedRuns:       r.Histogram("dmfb_kernel_realized_runs", "Realized trial count of one precision-targeted estimate.", realizedRunsBuckets),
	}
}
