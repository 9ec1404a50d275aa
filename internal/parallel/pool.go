package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a persistent fork/join pool for many short, back-to-back rounds
// of index-addressed jobs: the propose phase of sharded rewiring runs
// thousands of rounds of about 100µs each, where starting fresh goroutines
// (and waking idle processors for them) every round costs more than the
// parallelism saves.
//
// A Pool starts its helper goroutines once. Each Run publishes a new
// round and the calling goroutine claims and runs jobs alongside the
// helpers, so a helper that wakes late never holds a round up by more
// than the job it is running. Between rounds helpers spin for a bounded,
// constant number of polls, then park on a condition variable until the
// next round or Close.
//
// The caller claims jobs from the top index down and helpers from the
// bottom up. Each index therefore tends to run on the same goroutine —
// and processor — round after round, so per-index scratch stays in that
// processor's cache instead of migrating with every round. For the same
// reason the spin loops never yield: a yield lets the scheduler swap the
// caller and a helper between processors.
//
// As with Map, jobs must write only index-disjoint, caller-owned slots;
// which worker runs which index is scheduling, never output.
type Pool struct {
	fn    func(worker, i int)
	width int

	// state packs the current round's generation (bits 32-63) with the
	// bounds of its unclaimed index range [lo, hi) (lo in bits 16-31, hi
	// in bits 0-15). A claim is a CAS on the whole word, so it succeeds
	// only in the round it was made for.
	state   atomic.Uint64
	pending atomic.Int64 // jobs of the current round not yet finished
	gen     uint32       // caller-side copy of the current generation

	mu      sync.Mutex
	work    *sync.Cond   // helpers park here between rounds
	done    *sync.Cond   // the caller parks here for a round's tail
	parked  atomic.Int32 // helpers parked, or about to park, on work
	waiting atomic.Bool  // the caller is parked, or about to park, on done
	closed  atomic.Bool
	wg      sync.WaitGroup
}

// maxPoolJobs is the most jobs one Pool.Run accepts: the claim range
// packs into 16-bit bounds.
const maxPoolJobs = 1<<16 - 1

// spinPolls is how many times an idle pool goroutine polls for its
// wake-up condition before parking. At about 1ns a poll the budget is
// about 100µs, which covers the serial gap between two rounds (a
// rewiring commit phase, 25-70µs on 2-core Xeon), so back-to-back rounds
// find their helpers awake instead of paying a futex wake-up each, while
// a pool left idle parks quickly.
const spinPolls = 1 << 17

// NewPool returns a pool that runs fn(worker, i) for the jobs of each
// Run. Its width, the number of goroutines running jobs with the caller
// included, is workers (<= 0 selects DefaultWorkers) clamped to maxJobs,
// the most jobs any Run will have, and to runtime.GOMAXPROCS(0): a
// spinning helper beyond the processor count could only steal time from
// the others. It starts width-1 helper goroutines; at width 1 it starts
// none and Run is a plain loop. worker is in [0, width) and 0 is the
// caller, so fn may index per-worker scratch by it. Close stops the
// helpers.
func NewPool(workers, maxJobs int, fn func(worker, i int)) *Pool {
	width := min(clamp(workers, maxJobs), runtime.GOMAXPROCS(0))
	p := &Pool{fn: fn, width: width}
	p.work = sync.NewCond(&p.mu)
	p.done = sync.NewCond(&p.mu)
	for w := 1; w < width; w++ {
		p.wg.Add(1)
		go p.helper(w)
	}
	return p
}

// Run executes fn for every i in [0, n) and returns when all of them have
// finished. n must not exceed 65535. Run must be called from one
// goroutine at a time, and not after Close.
func (p *Pool) Run(n int) {
	if n <= 0 {
		return
	}
	if n > maxPoolJobs {
		panic("parallel: Pool.Run with more than 65535 jobs")
	}
	if p.width == 1 {
		for i := 0; i < n; i++ {
			p.fn(0, i)
		}
		return
	}
	p.pending.Store(int64(n))
	p.gen++
	p.state.Store(uint64(p.gen)<<32 | uint64(n))
	// A parking helper registers in parked before its last look at state,
	// and this load follows the store above, so one of the two sees the
	// other: either the helper sees the new round, or it gets woken.
	if p.parked.Load() > 0 {
		p.mu.Lock()
		p.work.Broadcast()
		p.mu.Unlock()
	}
	p.drain(0, p.gen)
	for spin := 0; p.pending.Load() > 0; spin++ {
		if spin < spinPolls {
			continue
		}
		p.mu.Lock()
		p.waiting.Store(true)
		for p.pending.Load() > 0 {
			p.done.Wait()
		}
		p.waiting.Store(false)
		p.mu.Unlock()
	}
}

// Close stops the helpers and returns once every one has exited. It is
// safe to defer on every path, including when the rounds were abandoned
// early, and to call more than once.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed.Store(true)
	p.work.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// drain claims and runs jobs of round gen until none is left unclaimed:
// the caller (worker 0) from the top of the range, helpers from the
// bottom.
func (p *Pool) drain(worker int, gen uint32) {
	for {
		v := p.state.Load()
		lo, hi := uint32(v>>16)&0xffff, uint32(v)&0xffff
		if uint32(v>>32) != gen || lo >= hi {
			return
		}
		i, next := hi-1, v-1
		if worker != 0 {
			i, next = lo, v+1<<16
		}
		if !p.state.CompareAndSwap(v, next) {
			continue
		}
		p.fn(worker, int(i))
		if p.pending.Add(-1) == 0 && worker != 0 && p.waiting.Load() {
			// The same store-then-load pairing as Run's wake-up: the
			// caller sets waiting before its last look at pending.
			p.mu.Lock()
			p.done.Broadcast()
			p.mu.Unlock()
		}
	}
}

// helper is the loop of one helper goroutine: wait for a round newer than
// the last one it joined, help drain it, repeat until Close.
func (p *Pool) helper(worker int) {
	defer p.wg.Done()
	var seen uint32
	for {
		gen := seen
		for spin := 0; gen == seen; spin++ {
			if p.closed.Load() {
				return
			}
			if spin < spinPolls {
				gen = uint32(p.state.Load() >> 32)
				continue
			}
			p.mu.Lock()
			p.parked.Add(1)
			for !p.closed.Load() && uint32(p.state.Load()>>32) == seen {
				p.work.Wait()
			}
			p.parked.Add(-1)
			p.mu.Unlock()
			gen = uint32(p.state.Load() >> 32)
		}
		seen = gen
		p.drain(worker, gen)
	}
}
