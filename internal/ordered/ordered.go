// Package ordered runs independent work items in parallel and folds their
// results strictly in index order. It is the one scheduler behind both
// levels of the yield study: the Monte-Carlo kernel's chunks of trials
// (yieldsim) and a sweep's grid points (sweep).
//
// Folding in index order, not completion order, is what makes a parallel
// result deterministic: when every item's value is a function of its index
// alone, the sequence commit sees — and so the first index at which it
// stops, or the first error it meets — does not depend on the worker count
// or on goroutine scheduling. Those only decide how much work past the
// stopping index was computed and thrown away.
package ordered

import (
	"context"
	"runtime"
	"sync/atomic"
)

// result is one finished item on its way to the committing goroutine. A
// worker's last message has i < 0: it reports that the worker has exited,
// with newWorker's error if it never started.
type result[T any] struct {
	i   int
	v   T
	err error
}

// Run computes items 0..n-1 with up to workers goroutines (0 or less means
// GOMAXPROCS; never more than n) and passes each value to commit, strictly
// in index order, from the caller's goroutine.
//
// Each worker calls newWorker once, before its first item, to build the
// state it owns, and then takes indexes in increasing order from a shared
// counter. work receives a context that Run cancels once the fold is over.
//
// Run stops at the first of:
//   - commit returning stop (Run returns nil) or an error (Run returns it);
//   - a work error at the lowest uncommitted index, which Run returns. A
//     work error at a higher index never masks a lower one: nothing is
//     cancelled until the fold reaches the failed index;
//   - a newWorker error, which Run returns;
//   - ctx's cancellation: workers take no further index, and Run returns
//     ctx.Err() unless the fold met an error first.
//
// Results that arrive after the fold has stopped are discarded. Run returns
// only after every worker has exited.
func Run[T any](ctx context.Context, n, workers int,
	newWorker func() (work func(ctx context.Context, i int) (T, error), err error),
	commit func(i int, v T) (stop bool, err error),
) error {
	if err := ctx.Err(); err != nil || n <= 0 {
		return err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// One closure serves every worker goroutine. The channel is unbuffered:
	// the committing goroutine drains it until every worker has said it
	// exited, so no send can block forever.
	results := make(chan result[T])
	var next atomic.Int64
	worker := func() {
		work, setupErr := newWorker()
		if setupErr == nil {
			for {
				i := int(next.Add(1)) - 1
				if i >= n || runCtx.Err() != nil {
					break
				}
				v, err := work(runCtx, i)
				results <- result[T]{i: i, v: v, err: err}
				if err != nil {
					// Every later index this worker could take lies above
					// i, past where the fold stops at the latest.
					break
				}
			}
		}
		results <- result[T]{i: -1, err: setupErr}
	}
	for range workers {
		go worker()
	}

	var (
		err     error
		stopped bool
		// pending holds results that arrived ahead of the fold; an
		// in-order arrival never touches it.
		pending   = make(map[int]result[T])
		committed = 0
	)
	for live := workers; live > 0; {
		r := <-results
		switch {
		case r.i < 0:
			live--
			if r.err != nil && err == nil && !stopped {
				err = r.err
				cancel()
			}
			continue
		case err != nil || stopped:
			continue // draining
		case r.i != committed:
			pending[r.i] = r
			continue
		}
		for {
			if r.err != nil {
				err = r.err
			} else {
				stopped, err = commit(r.i, r.v)
			}
			committed++
			if err != nil || stopped {
				cancel()
				break
			}
			var ok bool
			if r, ok = pending[committed]; !ok {
				break
			}
			delete(pending, committed)
		}
	}
	if err != nil {
		return err
	}
	if stopped {
		return nil
	}
	return ctx.Err()
}
