// Package par provides the small deterministic parallel-for used by the
// training fast path. Work items are indexed; each worker claims the next
// index from an atomic counter and writes results only into that index's
// slot. Because item i's computation never depends on which worker ran it
// (callers seed any randomness per index), output is bit-identical for
// every worker count — parallelism changes wall-clock, never results.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// workers returns how many goroutines run jobs items: GOMAXPROCS, clamped
// to jobs (no idle goroutines) and to at least one.
func workers(jobs int) int {
	return max(1, min(runtime.GOMAXPROCS(0), jobs))
}

// ForErr runs fn(i) for every i in [0, n) on up to GOMAXPROCS goroutines.
// fn must confine its writes to per-index state. Workers stop claiming new
// indices once any fn fails or ctx is done. The returned error is the
// lowest-index failure (deterministic, because indices are claimed in
// order: every index below a failed one was already claimed and allowed to
// finish), or ctx.Err() if the context fired first.
func ForErr(ctx context.Context, n int, fn func(i int) error) error {
	w := workers(n)
	if w == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var failed atomic.Bool
	var next atomic.Int64
	var wg sync.WaitGroup
	for range w {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if failed.Load() || ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					errs[i] = err
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}
