package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// withProcs runs the test body at the given GOMAXPROCS, so pool widths
// above the machine's core count are really exercised.
func withProcs(t *testing.T, procs int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// waitGoroutines waits until at most want goroutines exist. A joined
// goroutine has run its last deferred call but may take a moment to
// leave the count, so this polls against a deadline.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines alive, want at most %d", runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
	}
}

// TestPoolRunsEveryIndexOncePerRun drives thousands of back-to-back
// rounds of varying size through pools of several widths and requires
// every index of every round to run exactly once, on a worker in range.
// Some gaps between rounds outlast the helpers' spin budget and some jobs
// outlast the caller's, so both parking paths run too.
func TestPoolRunsEveryIndexOncePerRun(t *testing.T) {
	withProcs(t, 8)
	const maxJobs = 19
	for _, workers := range []int{1, 2, 3, 8} {
		var calls [maxJobs]atomic.Int32
		var badWorker atomic.Int32
		var slow atomic.Bool
		p := NewPool(workers, maxJobs, func(worker, i int) {
			if worker < 0 || worker >= workers {
				badWorker.Store(int32(worker) + 1)
			}
			if slow.Load() && i == 0 {
				time.Sleep(2 * time.Millisecond)
			}
			calls[i].Add(1)
		})
		for r := 0; r < 3000; r++ {
			n := 1 + r%maxJobs
			slow.Store(r%700 == 350)
			p.Run(n)
			for i := range calls {
				want := int32(0)
				if i < n {
					want = 1
				}
				if c := calls[i].Swap(0); c != want {
					p.Close()
					t.Fatalf("workers=%d round %d (n=%d): index %d ran %d times, want %d", workers, r, n, i, c, want)
				}
			}
			if r%500 == 250 {
				time.Sleep(2 * time.Millisecond)
			}
		}
		p.Run(0)
		p.Close()
		if w := badWorker.Load(); w != 0 {
			t.Fatalf("workers=%d: fn saw worker %d", workers, w-1)
		}
	}
}

// TestPoolWakesParkedHelpers requires a round published after the
// helpers have parked to run on all of them: each job of the round waits
// until every worker has started one, which only a woken helper can
// satisfy (the caller alone would run the jobs one after another).
func TestPoolWakesParkedHelpers(t *testing.T) {
	withProcs(t, 8)
	const width = 3
	var started [width]atomic.Bool
	var stuck atomic.Bool
	p := NewPool(width, width, func(worker, _ int) {
		started[worker].Store(true)
		deadline := time.Now().Add(5 * time.Second)
		for w := range started {
			for !started[w].Load() {
				if time.Now().After(deadline) {
					stuck.Store(true)
					return
				}
				runtime.Gosched()
			}
		}
	})
	defer p.Close()
	for r := 0; r < 3; r++ {
		time.Sleep(5 * time.Millisecond) // far beyond the spin budget
		for w := range started {
			started[w].Store(false)
		}
		p.Run(width)
		if stuck.Load() {
			t.Fatalf("round %d after an idle gap: not every helper joined", r)
		}
	}
}

// TestPoolWidthOneStartsNoGoroutine pins the poolless path: width 1 —
// asked for, or clamped there by GOMAXPROCS or the job count — starts no
// goroutine and runs every job on the caller, in index order.
func TestPoolWidthOneStartsNoGoroutine(t *testing.T) {
	cases := []struct{ procs, workers, maxJobs int }{
		{8, 1, 16}, // asked for
		{1, 8, 16}, // clamped by GOMAXPROCS
		{8, 8, 1},  // clamped by the job count
	}
	for _, c := range cases {
		prev := runtime.GOMAXPROCS(c.procs)
		base := runtime.NumGoroutine()
		var order []int
		p := NewPool(c.workers, c.maxJobs, func(worker, i int) {
			if worker != 0 {
				t.Errorf("%+v: job %d ran on worker %d", c, i, worker)
			}
			order = append(order, i)
		})
		if g := runtime.NumGoroutine(); g != base {
			t.Errorf("%+v: NewPool started %d goroutines", c, g-base)
		}
		p.Run(c.maxJobs)
		p.Close()
		runtime.GOMAXPROCS(prev)
		for i, v := range order {
			if v != i {
				t.Fatalf("%+v: job order %v, want ascending", c, order)
			}
		}
		if len(order) != c.maxJobs {
			t.Fatalf("%+v: ran %d jobs, want %d", c, len(order), c.maxJobs)
		}
	}
}

// TestPoolCloseJoinsHelpers requires Close to leave no helper behind,
// whether the helpers are spinning right after a round, parked after a
// long idle gap, or never saw a round at all; a second Close is a no-op.
func TestPoolCloseJoinsHelpers(t *testing.T) {
	withProcs(t, 8)
	base := runtime.NumGoroutine()
	for _, idle := range []time.Duration{-1, 0, 5 * time.Millisecond} {
		p := NewPool(4, 16, func(int, int) {})
		if g := runtime.NumGoroutine(); g != base+3 {
			t.Errorf("idle=%v: %d goroutines after NewPool(4), want %d", idle, g, base+3)
		}
		if idle >= 0 {
			p.Run(16)
			time.Sleep(idle)
		}
		p.Close()
		p.Close()
		waitGoroutines(t, base)
	}
}
