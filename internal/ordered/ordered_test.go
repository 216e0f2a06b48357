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
				}, nil)
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
		}, nil)
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
		}, nil)
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
	}, nil)
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
	err := Run(context.Background(), 1000, 4, newWorker, func(int, int) (bool, error) { return false, nil }, nil)
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
		if err := Run(ctx, n, 4, newWorker, func(int, int) (bool, error) { return false, nil }, nil); !errors.Is(err, context.Canceled) {
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
		}, nil)
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
	if err := Run(context.Background(), 0, 4, newWorker, commit, nil); err != nil {
		t.Fatalf("n=0: err = %v", err)
	}
}

func TestRunWorkersClampedToItems(t *testing.T) {
	var built atomic.Int64
	newWorker := func() (func(context.Context, int) (int, error), error) {
		built.Add(1)
		return func(_ context.Context, i int) (int, error) { return i, nil }, nil
	}
	if err := Run(context.Background(), 3, 16, newWorker, func(int, int) (bool, error) { return false, nil }, nil); err != nil {
		t.Fatal(err)
	}
	if got := built.Load(); got != 3 {
		t.Fatalf("built %d workers for 3 items, want 3", got)
	}
}

func TestRunCommitsNeverOverlap(t *testing.T) {
	// A commit runs on whichever worker finished the lowest uncommitted
	// item, outside the fold's lock; the fold must still keep every commit
	// and every end-of-run hook to itself. Run under -race, the race
	// detector also checks that commits and hooks see each other's writes.
	for workers := 2; workers <= 8; workers *= 2 {
		var inCommit atomic.Bool
		enter := func(what string, i int) {
			if inCommit.Swap(true) {
				t.Errorf("workers=%d: %s %d overlaps another commit or hook", workers, what, i)
			}
		}
		var got, run []int
		err := Run(context.Background(), 200, workers, square(int64(workers), 200*time.Microsecond),
			func(i, v int) (bool, error) {
				enter("commit", i)
				run = append(run, v)
				if i%7 == 0 {
					time.Sleep(50 * time.Microsecond)
				}
				inCommit.Store(false)
				return false, nil
			}, func() error {
				enter("endRun", len(got))
				got, run = append(got, run...), run[:0]
				inCommit.Store(false)
				return nil
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
	committed, runs := 0, 0
	err := Run(context.Background(), 50, 1, newWorker, func(i, v int) (bool, error) {
		check("commit", i)
		committed++
		return false, nil
	}, func() error {
		check("endRun", runs)
		runs++
		return nil
	})
	// One worker commits each item as it finishes: every run is one item.
	if err != nil || committed != 50 || runs != 50 {
		t.Fatalf("err = %v, committed %d and ended %d runs, want 50 each", err, committed, runs)
	}
}

func TestRunWindowBoundsTakenIndexes(t *testing.T) {
	// The worker holding the lowest uncommitted index, 0, is held on a
	// gate: the others take indexes up to W-1 and then wait, so no more
	// than W results are ever pending, however long the hold lasts.
	for _, workers := range []int{2, 3} {
		window := windowPerWorker * workers
		n := 4 * window
		// Indexes are taken in increasing order, so once the fold
		// settles the started items are exactly 0..started-1.
		var started atomic.Int64
		gate := make(chan struct{})
		newWorker := func() (func(context.Context, int) (int, error), error) {
			return func(_ context.Context, i int) (int, error) {
				started.Add(1)
				if i == 0 {
					<-gate
				}
				return i, nil
			}, nil
		}
		next := 0
		done := make(chan error, 1)
		go func() {
			done <- Run(context.Background(), n, workers, newWorker, func(i, v int) (bool, error) {
				if i != next || v != i {
					return false, fmt.Errorf("commit (%d, %d), want (%d, %d)", i, v, next, next)
				}
				next++
				return false, nil
			}, nil)
		}()
		deadline := time.Now().Add(5 * time.Second)
		for started.Load() < int64(window) && time.Now().Before(deadline) {
			time.Sleep(100 * time.Microsecond)
		}
		time.Sleep(20 * time.Millisecond) // room for a wrong take to show
		if got := started.Load(); got != int64(window) {
			t.Errorf("workers=%d: with index 0 held, items 0..%d started; want the window, 0..%d", workers, got-1, window-1)
		}
		close(gate)
		if err := <-done; err != nil || next != n {
			t.Fatalf("workers=%d: err = %v, committed %d of %d", workers, err, next, n)
		}
	}
}

func TestRunParkedResultsCommitAsOneRun(t *testing.T) {
	// Item 0's commit is held until the window behind it has filled: items
	// 1..W finished during the commit, so they reach the hook in the same
	// run as item 0, after one end-of-run call.
	const workers = 2
	window := windowPerWorker * workers
	n := 3 * window
	var finished atomic.Int64
	newWorker := func() (func(context.Context, int) (int, error), error) {
		return func(_ context.Context, i int) (int, error) {
			finished.Add(1)
			return i, nil
		}, nil
	}
	var run, runs []int
	next := 0
	err := Run(context.Background(), n, workers, newWorker, func(i, v int) (bool, error) {
		if i == 0 {
			deadline := time.Now().Add(5 * time.Second)
			for finished.Load() < int64(window+1) && time.Now().Before(deadline) {
				time.Sleep(100 * time.Microsecond)
			}
		}
		if i != next || v != i {
			return false, fmt.Errorf("commit (%d, %d), want (%d, %d)", i, v, next, next)
		}
		next++
		run = append(run, v)
		return false, nil
	}, func() error {
		runs, run = append(runs, len(run)), run[:0]
		return nil
	})
	if err != nil || next != n {
		t.Fatalf("err = %v, committed %d of %d", err, next, n)
	}
	if len(runs) == 0 || runs[0] < window+1 {
		t.Fatalf("runs %v: the %d results parked during item 0's commit did not commit with it", runs, window)
	}
	total := 0
	for _, r := range runs {
		total += r
	}
	if total != n {
		t.Fatalf("runs %v hold %d items, want %d", runs, total, n)
	}
}

func TestRunEndRunSeesPrefixBeforeStop(t *testing.T) {
	// Item 5 fails, or its commit stops the fold, while items 0..4 are
	// still running: the hook must still see exactly the committed prefix.
	boom := errors.New("boom")
	for _, tc := range []struct {
		name string
		fail bool
		want []int
	}{
		{"work error", true, []int{0, 1, 2, 3, 4}},
		{"stop", false, []int{0, 1, 2, 3, 4, 5}},
	} {
		for workers := 1; workers <= 4; workers++ {
			newWorker := func() (func(context.Context, int) (int, error), error) {
				return func(_ context.Context, i int) (int, error) {
					if i == 5 && tc.fail {
						return 0, boom
					}
					if i < 5 {
						time.Sleep(time.Duration(5-i) * time.Millisecond)
					}
					return i, nil
				}, nil
			}
			var run, seen []int
			err := Run(context.Background(), 40, workers, newWorker, func(i, v int) (bool, error) {
				run = append(run, v)
				return i == 5, nil
			}, func() error {
				seen, run = append(seen, run...), run[:0]
				return nil
			})
			if (err != nil) != tc.fail || (tc.fail && !errors.Is(err, boom)) {
				t.Fatalf("%s, workers=%d: err = %v", tc.name, workers, err)
			}
			if fmt.Sprint(seen) != fmt.Sprint(tc.want) || len(run) != 0 {
				t.Fatalf("%s, workers=%d: hook saw %v and left %v unseen, want %v", tc.name, workers, seen, run, tc.want)
			}
		}
	}
}

func TestRunEndRunError(t *testing.T) {
	// A failing hook ends the fold with its error, ahead of a later work
	// error.
	gone := errors.New("client gone")
	runs := 0
	err := Run(context.Background(), 100, 3, square(3, 100*time.Microsecond),
		func(int, int) (bool, error) { return false, nil },
		func() error {
			if runs++; runs == 2 {
				return gone
			}
			return nil
		})
	if !errors.Is(err, gone) || runs != 2 {
		t.Fatalf("err = %v after %d runs, want the hook's error after 2", err, runs)
	}
}
