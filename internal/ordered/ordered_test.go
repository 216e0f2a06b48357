package ordered

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// square is a worker whose item i is i*i after a random delay of up to
// maxDelay, so items finish out of index order.
func square(seed int64, maxDelay time.Duration) func() (func(context.Context, int) (int, error), error) {
	var workers atomic.Int64
	return func() (func(context.Context, int) (int, error), error) {
		rng := rand.New(rand.NewSource(seed + workers.Add(1)))
		return func(_ context.Context, i int) (int, error) {
			time.Sleep(time.Duration(rng.Int63n(int64(maxDelay) + 1)))
			return i * i, nil
		}, nil
	}
}

// waitGoroutines fails t unless the goroutine count falls back to at most
// before within a few seconds.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after Run", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRunCommitsInIndexOrder(t *testing.T) {
	const n = 40
	for workers := 1; workers <= 8; workers++ {
		t.Run(fmt.Sprint("workers=", workers), func(t *testing.T) {
			var got []int
			err := Run(context.Background(), n, workers, square(int64(workers), 2*time.Millisecond),
				func(i, v int) (bool, error) {
					if i != len(got) {
						t.Fatalf("commit %d after %d commits", i, len(got))
					}
					if v != i*i {
						t.Fatalf("commit %d got value %d", i, v)
					}
					got = append(got, i)
					return false, nil
				})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != n {
				t.Fatalf("committed %d of %d items", len(got), n)
			}
		})
	}
}

func TestRunLowestIndexErrorWins(t *testing.T) {
	// Items 3, 7 and 11 fail; the higher ones fail first, yet only the
	// lowest failing index is returned, and everything before it commits.
	before := runtime.NumGoroutine()
	for range 20 {
		newWorker := func() (func(context.Context, int) (int, error), error) {
			return func(_ context.Context, i int) (int, error) {
				switch i {
				case 3:
					time.Sleep(3 * time.Millisecond)
					return 0, fmt.Errorf("item %d", i)
				case 7, 11:
					return 0, fmt.Errorf("item %d", i)
				}
				return i, nil
			}, nil
		}
		committed := 0
		err := Run(context.Background(), 16, 4, newWorker, func(i, v int) (bool, error) {
			committed++
			return false, nil
		})
		if err == nil || err.Error() != "item 3" {
			t.Fatalf("err = %v, want item 3", err)
		}
		if committed != 3 {
			t.Fatalf("committed %d items, want 3", committed)
		}
	}
	waitGoroutines(t, before)
}

func TestRunStopDiscardsLaterResults(t *testing.T) {
	for workers := 1; workers <= 8; workers++ {
		var last int
		err := Run(context.Background(), 100, workers, square(1, time.Millisecond), func(i, v int) (bool, error) {
			last = i
			if i > 5 {
				t.Fatalf("commit %d after stop at 5", i)
			}
			return i == 5, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: stop returned %v, want nil", workers, err)
		}
		if last != 5 {
			t.Fatalf("workers=%d: last commit %d, want 5", workers, last)
		}
	}
}

func TestRunCommitError(t *testing.T) {
	gone := errors.New("client gone")
	err := Run(context.Background(), 10, 3, square(2, 0), func(i, v int) (bool, error) {
		if i == 4 {
			return false, gone
		}
		return false, nil
	})
	if !errors.Is(err, gone) {
		t.Fatalf("err = %v, want the commit error", err)
	}
}

func TestRunNewWorkerError(t *testing.T) {
	before := runtime.NumGoroutine()
	broken := errors.New("no session")
	var built atomic.Int64
	newWorker := func() (func(context.Context, int) (int, error), error) {
		if built.Add(1) == 2 {
			return nil, broken
		}
		return func(_ context.Context, i int) (int, error) {
			time.Sleep(time.Millisecond)
			return i, nil
		}, nil
	}
	err := Run(context.Background(), 1000, 4, newWorker, func(int, int) (bool, error) { return false, nil })
	if !errors.Is(err, broken) {
		t.Fatalf("err = %v, want the newWorker error", err)
	}
	waitGoroutines(t, before)
}

func TestRunPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	newWorker := func() (func(context.Context, int) (int, error), error) {
		t.Error("newWorker called under a cancelled context")
		return nil, nil
	}
	for _, n := range []int{0, 1, 10} {
		if err := Run(ctx, n, 4, newWorker, func(int, int) (bool, error) { return false, nil }); !errors.Is(err, context.Canceled) {
			t.Fatalf("n=%d: err = %v, want context.Canceled", n, err)
		}
	}
}

func TestRunMidRunCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, honour := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		newWorker := func() (func(context.Context, int) (int, error), error) {
			return func(ctx context.Context, i int) (int, error) {
				time.Sleep(100 * time.Microsecond)
				if honour {
					return 0, ctx.Err()
				}
				return i, nil
			}, nil
		}
		committed := 0
		err := Run(ctx, 1_000_000, 4, newWorker, func(i, v int) (bool, error) {
			if committed++; committed == 50 {
				cancel()
			}
			return false, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("honour=%v: err = %v, want context.Canceled", honour, err)
		}
		if committed >= 1_000_000 {
			t.Fatalf("honour=%v: cancellation did not stop the run", honour)
		}
	}
	waitGoroutines(t, before)
}

func TestRunEmpty(t *testing.T) {
	newWorker := func() (func(context.Context, int) (int, error), error) {
		t.Error("newWorker called for zero items")
		return nil, nil
	}
	commit := func(int, int) (bool, error) {
		t.Fatal("commit called for zero items")
		return false, nil
	}
	if err := Run(context.Background(), 0, 4, newWorker, commit); err != nil {
		t.Fatalf("n=0: err = %v", err)
	}
}

func TestRunWorkersClampedToItems(t *testing.T) {
	var built atomic.Int64
	newWorker := func() (func(context.Context, int) (int, error), error) {
		built.Add(1)
		return func(_ context.Context, i int) (int, error) { return i, nil }, nil
	}
	if err := Run(context.Background(), 3, 16, newWorker, func(int, int) (bool, error) { return false, nil }); err != nil {
		t.Fatal(err)
	}
	if got := built.Load(); got != 3 {
		t.Fatalf("built %d workers for 3 items, want 3", got)
	}
}

func TestRunCommitsNeverOverlap(t *testing.T) {
	// A commit runs on whichever worker finished the lowest uncommitted
	// item; the fold's lock must still keep every commit to itself. Run
	// under -race, the race detector also checks that commits see each
	// other's writes.
	for workers := 2; workers <= 8; workers *= 2 {
		var inCommit atomic.Bool
		var got []int
		err := Run(context.Background(), 200, workers, square(int64(workers), 200*time.Microsecond),
			func(i, v int) (bool, error) {
				if inCommit.Swap(true) {
					t.Errorf("workers=%d: commit %d overlaps another commit", workers, i)
				}
				got = append(got, v)
				if i%7 == 0 {
					time.Sleep(50 * time.Microsecond)
				}
				inCommit.Store(false)
				return false, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: commit %d got %d", workers, i, v)
			}
		}
		if len(got) != 200 {
			t.Fatalf("workers=%d: committed %d of 200 items", workers, len(got))
		}
	}
}

// goroutineID parses the running goroutine's ID from its stack header.
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	f := strings.Fields(string(buf))
	return f[1] // "goroutine <id> [running]:"
}

func TestRunOneWorkerStaysOnCaller(t *testing.T) {
	caller := goroutineID()
	before := runtime.NumGoroutine()
	check := func(what string, i int) {
		if id := goroutineID(); id != caller {
			t.Errorf("%s %d ran on goroutine %s, want the caller's %s", what, i, id, caller)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("%s %d: %d goroutines, more than the %d before Run", what, i, n, before)
		}
	}
	newWorker := func() (func(context.Context, int) (int, error), error) {
		check("newWorker", -1)
		return func(_ context.Context, i int) (int, error) {
			check("item", i)
			return i, nil
		}, nil
	}
	committed := 0
	err := Run(context.Background(), 50, 1, newWorker, func(i, v int) (bool, error) {
		check("commit", i)
		committed++
		return false, nil
	})
	if err != nil || committed != 50 {
		t.Fatalf("err = %v, committed %d of 50", err, committed)
	}
}

func TestRunSlowCommitHoldsWorkers(t *testing.T) {
	// Item 0's commit blocks until released. Items 1 and 2 finish while it
	// runs; their workers must wait for the commit before taking items 3
	// and 4, as they waited on the unbuffered hand-off before.
	const workers, n = 3, 40
	var started atomic.Int64
	commitStarted, release := make(chan struct{}), make(chan struct{})
	newWorker := func() (func(context.Context, int) (int, error), error) {
		return func(_ context.Context, i int) (int, error) {
			started.Add(1)
			if i > 0 {
				<-commitStarted
			}
			return i, nil
		}, nil
	}
	done := make(chan error, 1)
	committed := 0
	go func() {
		done <- Run(context.Background(), n, workers, newWorker, func(i, v int) (bool, error) {
			if i == 0 {
				close(commitStarted)
				<-release
			}
			committed++
			return false, nil
		})
	}()
	<-commitStarted
	time.Sleep(30 * time.Millisecond)
	if got := started.Load(); got != workers {
		t.Errorf("%d items started during a blocked commit, want %d", got, workers)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if committed != n || started.Load() != n {
		t.Fatalf("committed %d, started %d, want %d each", committed, started.Load(), n)
	}
}

func TestRunPendingRingGrows(t *testing.T) {
	// Item 0 finishes last, so nearly every other result waits for it:
	// far more than the ring's inline slots.
	const n = 64
	var finished atomic.Int64
	newWorker := func() (func(context.Context, int) (int, error), error) {
		return func(_ context.Context, i int) (int, error) {
			if i == 0 {
				deadline := time.Now().Add(5 * time.Second)
				for finished.Load() < n-4 && time.Now().Before(deadline) {
					time.Sleep(100 * time.Microsecond)
				}
			}
			finished.Add(1)
			return i * i, nil
		}, nil
	}
	next := 0
	err := Run(context.Background(), n, 4, newWorker, func(i, v int) (bool, error) {
		if i != next || v != i*i {
			return false, fmt.Errorf("commit (%d, %d), want (%d, %d)", i, v, next, next*next)
		}
		next++
		return false, nil
	})
	if err != nil || next != n {
		t.Fatalf("err = %v, committed %d of %d", err, next, n)
	}
}
