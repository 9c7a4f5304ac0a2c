package experiments

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
)

// The parallel experiment runner. Every figure of the paper is a sweep
// over independent scenario simulations — (pair, policy) cells, core
// configurations, bandwidth points, offered loads — and each
// sched.Simulator instance is fully self-contained, so the sweeps fan
// out across a GOMAXPROCS-sized worker pool. Determinism is preserved
// by construction:
//
//   - results are collected into a slice by job index and consumed in
//     that order, so tables are byte-identical to a sequential run;
//   - each simulation derives its randomness from its own Config.Seed,
//     never from scheduling order;
//   - on error, the error of the lowest-indexed failing job is
//     returned — exactly the one a sequential loop would have hit
//     first;
//   - shared caches (compiled workloads, the pair-study memo) are
//     mutex-guarded and their contents are pure functions of their
//     keys, so population order cannot leak into results.
//
// TestParallelMatchesSequential locks the byte-identical property down.

// parMap runs fn over items on min(workers, len(items)) goroutines and
// returns the results in item order. workers <= 0 means GOMAXPROCS.
func parMap[T, R any](workers int, items []T, fn func(item T) (R, error)) ([]R, error) {
	n := len(items)
	results := make([]R, n)
	errs := make([]error, n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			r, err := fn(items[i])
			if err != nil {
				return nil, err // fail fast, like the sequential loop
			}
			results[i] = r
		}
		return results, nil
	}
	// failedAt tracks the lowest failed job index so far: jobs above it
	// are skipped (their results could not influence the returned error
	// or survive it), while lower-indexed jobs still run — one of them
	// may fail too and become the error a sequential loop would report.
	var failedAt atomic.Int64
	failedAt.Store(math.MaxInt64)
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			// The pprof label tags every sample a -cpuprofile run collects
			// with the worker that produced it (`pprof -tagfocus`).
			pprof.Do(context.Background(), pprof.Labels("parmap-worker", fmt.Sprint(w)), func(context.Context) {
				for i := range next {
					if int64(i) > failedAt.Load() {
						continue
					}
					results[i], errs[i] = fn(items[i])
					if errs[i] != nil {
						for {
							cur := failedAt.Load()
							if int64(i) >= cur || failedAt.CompareAndSwap(cur, int64(i)) {
								break
							}
						}
					}
				}
			})
		}(w)
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
