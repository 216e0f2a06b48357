package service

import (
	"context"
	"fmt"
	"sync"

	"dmfb/internal/sweep"
)

// flightGroup deduplicates concurrent identical work: callers who Do the
// same key while a computation is in flight block until the leader finishes
// and share its result, so N identical requests cost one simulation.
// A minimal single-flight, in the spirit of golang.org/x/sync/singleflight.
type flightGroup struct {
	mu    sync.Mutex
	calls map[cacheKey]*flightCall
}

// flightCall is one in-flight computation.
type flightCall struct {
	done chan struct{}
	val  sweep.PointResult
	err  error
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[cacheKey]*flightCall)}
}

// Do executes fn for k, collapsing concurrent duplicate calls onto the first
// one. shared reports whether this caller piggybacked on another's work. A
// follower whose own ctx is cancelled stops waiting and returns ctx.Err();
// the leader's computation continues for the remaining waiters.
func (g *flightGroup) Do(ctx context.Context, k cacheKey, fn func() (sweep.PointResult, error)) (val sweep.PointResult, err error, shared bool) {
	g.mu.Lock()
	if c, ok := g.calls[k]; ok {
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.val, c.err, true
		case <-ctx.Done():
			return sweep.PointResult{}, ctx.Err(), true
		}
	}
	c := &flightCall{done: make(chan struct{})}
	g.calls[k] = c
	g.mu.Unlock()

	// Deregister and release waiters even if fn panics (net/http recovers
	// handler panics, and a stuck flightCall would poison this key forever:
	// every later identical request would block on done eternally). Waiters
	// get an error rather than a nil result; the panic then resumes on the
	// leader's goroutine.
	defer func() {
		if r := recover(); r != nil {
			c.val, c.err = sweep.PointResult{}, fmt.Errorf("service: panic during shared computation: %v", r)
			g.finish(k, c)
			panic(r)
		}
		g.finish(k, c)
	}()
	c.val, c.err = fn()
	return c.val, c.err, false
}

// finish deregisters a call and releases its waiters.
func (g *flightGroup) finish(k cacheKey, c *flightCall) {
	g.mu.Lock()
	delete(g.calls, k)
	g.mu.Unlock()
	close(c.done)
}
