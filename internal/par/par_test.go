package par

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

// withProcs runs f with GOMAXPROCS set to procs, the only knob that sets
// how many goroutines ForErr starts.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

func TestWorkersClamp(t *testing.T) {
	withProcs(8, func() {
		if w := workers(100); w != 8 {
			t.Fatalf("GOMAXPROCS 8: workers(100) = %d, want 8", w)
		}
		if w := workers(3); w != 3 {
			t.Fatalf("workers(3) = %d, want 3", w)
		}
		if w := workers(0); w != 1 {
			t.Fatalf("workers(0) = %d, want 1", w)
		}
	})
}

func TestForCoversAllIndicesOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		n := 137
		hits := make([]int32, n)
		withProcs(procs, func() {
			ForErr(context.Background(), n, func(i int) error {
				atomic.AddInt32(&hits[i], 1)
				return nil
			})
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("GOMAXPROCS %d: index %d hit %d times", procs, i, h)
			}
		}
	}
}

func TestForErrReturnsLowestIndexError(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	for _, procs := range []int{1, 4} {
		var err error
		withProcs(procs, func() {
			err = ForErr(context.Background(), 64, func(i int) error {
				switch i {
				case 5:
					return errLow
				case 40:
					return errHigh
				}
				return nil
			})
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("GOMAXPROCS %d: got %v, want lowest-index error", procs, err)
		}
	}
}

func TestForErrCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	var err error
	withProcs(2, func() {
		err = ForErr(ctx, 1000, func(i int) error {
			if ran.Add(1) == 3 {
				cancel()
			}
			return nil
		})
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 1000 {
		t.Fatalf("cancellation did not stop the loop (ran %d)", n)
	}
}

func TestForErrNoError(t *testing.T) {
	if err := ForErr(context.Background(), 50, func(int) error { return nil }); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
}
