package dkseries

import (
	"context"
	"runtime"
	"testing"
	"time"

	"sgr/internal/graph"
)

// TestRewireShardedContext pins the engine's side of the cancellation
// contract: a live context never changes a single byte of the trajectory,
// and a cancelled one stops the round loop — returning a valid (merely
// under-rewired) graph that still realizes DV and JDM, which the caller
// is expected to discard.
func TestRewireShardedContext(t *testing.T) {
	fixed, cands, target := shardedInput(5, 200)
	n := nodeCount(fixed, cands)
	run := func(ctx context.Context) (*graph.Graph, RewireStats, []graph.Edge) {
		cc := append([]graph.Edge(nil), cands...)
		g, st := RewireSharded(n, fixed, cc, ShardedRewireOptions{
			TargetClustering: target,
			RC:               6,
			Seed1:            5,
			Seed2:            5 ^ 0xabcdef,
			Workers:          2,
			Ctx:              ctx,
		})
		return g, st, cc
	}

	gNil, stNil, ccNil := run(nil)
	gLive, stLive, ccLive := run(context.Background())
	if stNil != stLive || !graph.Equal(gNil, gLive) {
		t.Fatal("a live context changed the rewiring trajectory")
	}
	for i := range ccNil {
		if ccNil[i] != ccLive[i] {
			t.Fatalf("candidate %d endpoints diverge under a live context", i)
		}
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	gStop, stStop, _ := run(cancelled)
	if stStop.Rounds != 0 || stStop.Attempts != 0 {
		t.Fatalf("cancelled run still rewired: %+v", stStop)
	}
	// The aborted graph is structurally whole: same node count, same edge
	// multiset cardinality as the input edge set — rewiring only ever
	// swaps endpoints, and an abort between rounds leaves no half-swap.
	if gStop.N() != gNil.N() || gStop.M() != gNil.M() {
		t.Fatalf("aborted graph shape n=%d m=%d, want n=%d m=%d", gStop.N(), gStop.M(), gNil.N(), gNil.M())
	}
}

// roundLimitCtx is a context whose Done channel reports closed from the
// (limit+1)-th Done call on. The engine polls Done once per round, so
// this cancels a run after exactly limit rounds, mid-run, with no timing
// involved.
type roundLimitCtx struct {
	context.Context
	limit, calls int
	open, closed chan struct{}
}

func newRoundLimitCtx(limit int) *roundLimitCtx {
	c := &roundLimitCtx{Context: context.Background(), limit: limit,
		open: make(chan struct{}), closed: make(chan struct{})}
	close(c.closed)
	return c
}

func (c *roundLimitCtx) Done() <-chan struct{} {
	c.calls++
	if c.calls > c.limit {
		return c.closed
	}
	return c.open
}

// TestRewireShardedCancelJoinsHelpers pins the propose pool's lifetime: a
// run at Workers 4 that the context stops mid-way — or before its first
// round — returns only after every helper goroutine has exited.
func TestRewireShardedCancelJoinsHelpers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	fixed, cands, target := shardedInput(6, 200)
	n := nodeCount(fixed, cands)
	base := runtime.NumGoroutine()
	for _, limit := range []int{0, 3} {
		cc := append([]graph.Edge(nil), cands...)
		_, st := RewireSharded(n, fixed, cc, ShardedRewireOptions{
			TargetClustering: target,
			RC:               6,
			Seed1:            6,
			Seed2:            6 ^ 0xabcdef,
			Workers:          4,
			Ctx:              newRoundLimitCtx(limit),
		})
		if st.Rounds != limit {
			t.Fatalf("limit %d: ran %d rounds", limit, st.Rounds)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("limit %d: %d goroutines alive after the run, want %d", limit, runtime.NumGoroutine(), base)
			}
			runtime.Gosched()
		}
	}
}
