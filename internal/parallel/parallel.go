// Package parallel provides the bounded, deterministic worker pool that
// drives the evaluation pipeline. Jobs are identified by a dense index;
// results are collected by index, never by completion order, so a caller
// that makes every job self-contained (its own RNG stream, no shared
// mutable state) gets byte-identical output at any worker count. All
// scheduling is work-stealing over an atomic cursor: goroutines claim the
// next unclaimed index, which balances uneven job costs without affecting
// where results land. Map and Blocks start their goroutines per call; Pool
// keeps them across many short rounds (see pool.go).
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers returns the default pool width, runtime.GOMAXPROCS(0) —
// the scheduler's actual parallelism bound, which respects CPU-limited
// containers where NumCPU would oversubscribe.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// clamp normalizes a requested worker count for n jobs: non-positive
// selects DefaultWorkers, and the pool never exceeds the job count.
func clamp(workers, n int) int {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Map runs fn(0), ..., fn(n-1) on at most workers goroutines and returns
// the results in index order. workers <= 0 selects DefaultWorkers.
//
// On failure Map stops claiming new jobs (already-claimed jobs run to
// completion) and returns the lowest-index error among the jobs that ran.
// fn must be safe for concurrent invocation with distinct indices.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	workers = clamp(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				v, err := fn(i)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Blocks partitions [0, n) into contiguous blocks and runs fn(lo, hi) for
// each on at most workers goroutines. It suits tight per-element loops
// whose bodies are too cheap to schedule individually and lets fn allocate
// per-block scratch (BFS buffers, partial maps) once per block rather than
// once per element. Block boundaries affect scheduling only: as long as fn
// writes index-disjoint slots — or collects per-block partials that the
// caller merges after Blocks returns, if the merge is order-insensitive
// (integer sums) — the outcome is independent of the worker count. fn must
// not update shared accumulators in place; concurrent blocks race on them.
func Blocks(workers, n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers = clamp(workers, n)
	if workers == 1 {
		fn(0, n)
		return
	}
	// A few blocks per worker keeps the pool busy under uneven costs
	// without shrinking blocks into scheduling overhead.
	blocks := workers * 4
	if blocks > n {
		blocks = n
	}
	size := (n + blocks - 1) / blocks
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := (int(next.Add(1)) - 1) * size
				if lo >= n {
					return
				}
				hi := lo + size
				if hi > n {
					hi = n
				}
				fn(lo, hi)
			}
		}()
	}
	wg.Wait()
}
