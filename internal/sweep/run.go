package sweep

import (
	"context"

	"dmfb/internal/ordered"
)

// EvalFunc computes one grid point. Implementations must honor ctx (the
// Monte-Carlo kernel observes cancellation between chunks).
type EvalFunc func(ctx context.Context, pt Point) (PointResult, error)

// EmitFunc receives one finished point. Run calls it one point at a time,
// strictly in point order, from whichever evaluation goroutine finished the
// lowest unemitted point; returning an error cancels the sweep.
type EmitFunc func(res PointResult) error

// Run evaluates pts on ordered.Run with up to workers concurrent
// evaluations (0 means GOMAXPROCS) and emits each result in point-index
// order as soon as its prefix completes. Because emission order is fixed
// and the kernel is chunk-seeded, a sweep's output is byte-identical
// regardless of worker count or scheduling.
//
// The first error — an evaluation failure at the lowest unemitted index, an
// emit error, or ctx's cancellation — cancels all outstanding evaluations.
// Run returns only after every evaluation has returned, so a cancelled
// sweep leaks nothing.
func Run(ctx context.Context, pts []Point, workers int, eval EvalFunc, emit EmitFunc) error {
	evalAt := func(ctx context.Context, i int) (PointResult, error) { return eval(ctx, pts[i]) }
	return ordered.Run(ctx, len(pts), workers,
		func() (func(context.Context, int) (PointResult, error), error) { return evalAt, nil },
		func(_ int, r PointResult) (bool, error) { return false, emit(r) })
}
