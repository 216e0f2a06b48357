// Package ordered runs independent work items in parallel and folds their
// results strictly in index order. It is the one scheduler behind both
// levels of the yield study — the Monte-Carlo kernel's chunks of trials
// (yieldsim) and a sweep's grid points (service) — and behind the durable
// job store's replay, one item per job directory.
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
// becomes the committer: outside the fold's lock, it commits that result
// and every later one already waiting, one at a time, and then calls the
// end-of-run hook once for the whole run. Results that finish meanwhile
// park in a window of W slots, W a fixed multiple of the worker count: a
// worker takes index i only while i < committed+W, so a slow commit or
// hook holds at most W results back, the worker holding the lowest
// uncommitted index never waits, and the results parked during one run
// reach the next as one run.
package ordered

import (
	"context"
	"runtime"
	"sync"
)

// windowPerWorker sets the window: W = windowPerWorker × workers pending
// results at most. One worker needs no more than the one slot it commits
// from: it takes each index only after committing the one before.
const windowPerWorker = 32

// Run computes items 0..n-1 with up to workers goroutines (0 or less means
// GOMAXPROCS; never more than n), the caller's among them, and passes each
// value to commit one at a time, strictly in index order. With one worker
// Run starts no goroutine: every item, commit and hook runs on the caller.
//
// Each worker calls newWorker once, before its first item, to build the
// state it owns, and then takes indexes in increasing order, never more
// than W past the lowest uncommitted one. work receives a context that Run
// cancels once the fold is over. commit runs on whichever worker finished
// the lowest uncommitted item, never alongside another commit. After each
// run of consecutive commits, endRun, when not nil, is called once on the
// same worker, also when the run ended at a stop or an error, so it sees
// every committed value before the fold is over.
//
// Run stops at the first of:
//   - commit returning stop (Run returns nil) or an error (Run returns it);
//   - endRun returning an error, which Run returns in place of the error
//     that ended the run, if any: the run's values come before it;
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
	endRun func() error,
) error {
	if err := ctx.Err(); err != nil || n <= 0 {
		return err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	f := &fold[T]{n: n, newWorker: newWorker, commit: commit, endRun: endRun}
	f.moved.L = &f.mu
	f.ctx, f.cancel = context.WithCancel(ctx)
	defer f.cancel()
	f.pending = f.one[:]
	if workers > 1 {
		f.pending = make([]slot[T], windowPerWorker*workers)
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

// fold is one Run's shared state, in one allocation, plus the window's
// slots when there is more than one worker.
type fold[T any] struct {
	n         int
	newWorker func() (func(context.Context, int) (T, error), error)
	commit    func(int, T) (bool, error)
	endRun    func() error
	ctx       context.Context // cancelled once the fold is over
	cancel    context.CancelFunc
	wg        sync.WaitGroup

	// mu guards the rest. Commits and hooks run without it; committing
	// keeps them to one worker at a time.
	mu         sync.Mutex
	moved      sync.Cond // broadcast when the window moves or the fold ends
	next       int       // the next index to take
	committed  int       // the lowest index not yet handed to commit
	committing bool
	err        error
	stopped    bool
	// pending is the window: outcome i waits at i%len(pending), for
	// committed <= i < committed+len(pending), until it is committed.
	pending []slot[T]
	one     [1]slot[T]
}

// slot is one pending outcome.
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
// until they run out, the fold is over or ctx is cancelled. It holds f.mu
// except while it works on an item, commits or calls the hook.
func (f *fold[T]) work() {
	work, err := f.newWorker()
	f.mu.Lock()
	defer f.mu.Unlock()
	if err != nil {
		if !f.over() {
			f.err = err
			f.cancel()
			f.moved.Broadcast()
		}
		return
	}
	for i, ok := f.take(); ok; i, ok = f.take() {
		f.mu.Unlock()
		v, err := work(f.ctx, i)
		f.mu.Lock()
		// After an error, every later index this worker could take lies
		// above i, past where the fold stops at the latest.
		if !f.put(i, slot[T]{v: v, err: err, full: true}) || err != nil {
			return
		}
	}
}

// over reports whether the fold has stopped. Requires f.mu.
func (f *fold[T]) over() bool { return f.err != nil || f.stopped }

// take returns the next index once it lies inside the window, or false
// when the indexes have run out, the fold is over or ctx is cancelled. The
// holder of the lowest uncommitted index never waits here, so the window
// always moves on. Requires f.mu.
func (f *fold[T]) take() (int, bool) {
	for f.next < f.n && !f.over() && f.ctx.Err() == nil {
		if f.next < f.committed+len(f.pending) {
			f.next++
			return f.next - 1, true
		}
		f.moved.Wait()
	}
	return 0, false
}

// put parks item i's outcome and reports whether the fold goes on. When i
// is the lowest uncommitted index and no commit is running, this worker
// becomes the committer until no outcome waits at the lowest index.
// Requires f.mu.
func (f *fold[T]) put(i int, s slot[T]) bool {
	if f.over() {
		return false
	}
	f.pending[i%len(f.pending)] = s
	if f.committing || i != f.committed {
		return true
	}
	f.committing = true
	// Outcomes that parked during a run's hook make the next run.
	for !f.over() && f.pending[f.committed%len(f.pending)].full {
		f.commitRun()
	}
	f.committing = false
	return !f.over()
}

// commitRun commits the consecutive outcomes waiting from the lowest
// uncommitted index on, then calls the hook once for the run. Requires
// f.mu, which it releases around each commit and the hook.
func (f *fold[T]) commitRun() {
	var err error
	commits := 0
	for s := f.unpark(); s.full; s = f.unpark() {
		i := f.committed
		f.committed++
		f.moved.Broadcast()
		if err = s.err; err != nil {
			break
		}
		f.mu.Unlock()
		var stop bool
		stop, err = f.commit(i, s.v)
		f.mu.Lock()
		commits++
		f.stopped = f.stopped || stop
		if err != nil || f.over() {
			break
		}
	}
	if commits > 0 && f.endRun != nil {
		f.mu.Unlock()
		if endErr := f.endRun(); endErr != nil {
			err = endErr
		}
		f.mu.Lock()
	}
	if err != nil && f.err == nil {
		f.err = err
	}
	if f.over() {
		f.cancel()
		f.moved.Broadcast()
	}
}

// unpark empties the slot of the lowest uncommitted index and returns what
// it held: an outcome, or an empty slot. Requires f.mu.
func (f *fold[T]) unpark() (s slot[T]) {
	p := &f.pending[f.committed%len(f.pending)]
	s, *p = *p, slot[T]{}
	return s
}
