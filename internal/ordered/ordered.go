// Package ordered runs independent work items in parallel and folds their
// results strictly in index order. It is the one scheduler behind both
// levels of the yield study — the Monte-Carlo kernel's chunks of trials
// (yieldsim) and a sweep's grid points (sweep) — and behind the durable job
// store's replay, one item per job directory.
//
// Folding in index order, not completion order, is what makes a parallel
// result deterministic: when every item's value is a function of its index
// alone, the sequence commit sees — and so the first index at which it
// stops, or the first error it meets — does not depend on the worker count
// or on goroutine scheduling. Those only decide how much work past the
// stopping index was computed and thrown away.
//
// No goroutine exists only to commit. The caller's goroutine is one of the
// workers, and the worker that finishes the lowest uncommitted index
// commits it, and every later result already waiting, under the fold's
// lock. A worker that finishes while a commit runs waits for that commit
// before it takes another item, so a slow commit holds the whole fold back
// instead of letting finished results pile up.
package ordered

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Run computes items 0..n-1 with up to workers goroutines (0 or less means
// GOMAXPROCS; never more than n), the caller's among them, and passes each
// value to commit one at a time, strictly in index order. With one worker
// Run starts no goroutine: every item and every commit runs on the caller.
//
// Each worker calls newWorker once, before its first item, to build the
// state it owns, and then takes indexes in increasing order from a shared
// counter. work receives a context that Run cancels once the fold is over.
// commit runs on whichever worker finished the lowest uncommitted item.
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
	f := &fold[T]{n: n, newWorker: newWorker, commit: commit}
	f.ctx, f.cancel = context.WithCancel(ctx)
	defer f.cancel()
	f.pending = f.inline[:]
	if workers > 1 {
		spawned := f.spawned // one func value serves every goroutine
		f.wg.Add(workers - 1)
		for range workers - 1 {
			go spawned()
		}
	}
	f.work()
	f.wg.Wait()
	if f.err != nil {
		return f.err
	}
	if f.stopped {
		return nil
	}
	return ctx.Err()
}

// fold is one Run's shared state, in one allocation.
type fold[T any] struct {
	n         int
	newWorker func() (func(context.Context, int) (T, error), error)
	commit    func(int, T) (bool, error)
	ctx       context.Context // cancelled once the fold is over
	cancel    context.CancelFunc
	next      atomic.Int64 // the next index to take
	wg        sync.WaitGroup

	// mu guards the rest. It is held across every commit: that keeps
	// commits one at a time, and makes a worker that finishes during a
	// commit wait for it.
	mu        sync.Mutex
	committed int // the lowest uncommitted index
	err       error
	stopped   bool
	// pending is a ring of results that finished ahead of the fold: index
	// i sits at i&(len-1), for committed < i < committed+len. It starts as
	// inline and doubles when a result lands past its end.
	pending []slot[T]
	inline  [4]slot[T]
}

// slot is one pending result.
type slot[T any] struct {
	v    T
	err  error
	full bool
}

// spawned is a worker on its own goroutine.
func (f *fold[T]) spawned() {
	defer f.wg.Done()
	f.work()
}

// work runs one worker: it builds the worker's state, then takes indexes
// in increasing order until they run out, the fold is over or ctx is
// cancelled.
func (f *fold[T]) work() {
	work, err := f.newWorker()
	if err != nil {
		f.mu.Lock()
		if !f.over() {
			f.err = err
			f.cancel()
		}
		f.mu.Unlock()
		return
	}
	for {
		i := int(f.next.Add(1)) - 1
		if i >= f.n || f.ctx.Err() != nil {
			return
		}
		v, err := work(f.ctx, i)
		// After an error, every later index this worker could take lies
		// above i, past where the fold stops at the latest.
		if !f.put(i, v, err) || err != nil {
			return
		}
	}
}

// over reports whether the fold has stopped. Requires f.mu.
func (f *fold[T]) over() bool { return f.err != nil || f.stopped }

// put hands item i's outcome to the fold and reports whether the fold goes
// on. If i is the lowest uncommitted index, put commits it and then every
// consecutive result already pending; otherwise it parks the result.
func (f *fold[T]) put(i int, v T, err error) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.over() {
		return false
	}
	if i != f.committed {
		f.park(i, v, err)
		return true
	}
	for {
		if err != nil {
			f.err = err
		} else {
			f.stopped, f.err = f.commit(i, v)
		}
		f.committed++
		if f.over() {
			f.cancel()
			return false
		}
		s := &f.pending[f.committed&(len(f.pending)-1)]
		if !s.full {
			return true
		}
		i, v, err = f.committed, s.v, s.err
		*s = slot[T]{}
	}
}

// park stores a result that finished ahead of the fold, growing the ring
// until i fits. Requires f.mu.
func (f *fold[T]) park(i int, v T, err error) {
	if size := len(f.pending); i-f.committed >= size {
		for size <= i-f.committed {
			size *= 2
		}
		ring := make([]slot[T], size)
		for j := f.committed + 1; j < f.committed+len(f.pending); j++ {
			ring[j&(size-1)] = f.pending[j&(len(f.pending)-1)]
		}
		f.pending = ring
	}
	f.pending[i&(len(f.pending)-1)] = slot[T]{v: v, err: err, full: true}
}
