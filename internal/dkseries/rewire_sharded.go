package dkseries

import (
	"context"
	"math/rand/v2"
	"slices"

	"sgr/internal/adjset"
	"sgr/internal/graph"
	"sgr/internal/obs"
	"sgr/internal/parallel"
	"sgr/internal/sampling"
)

// This file implements the sharded, parallel variant of Algorithm 6. The
// serial engine in rewire.go mutates the adjacency on every attempt and
// reverts on rejection — correct, but inherently sequential and twice as
// expensive as necessary on the ~97% of attempts that are rejected. The
// sharded engine restructures the loop into deterministic rounds:
//
//  1. Propose (parallel, read-only). The candidate half-edge space is
//     partitioned by degree bucket into a fixed number of shards. Each
//     shard draws a quota of swap proposals from its own PCG sub-stream
//     (sampling.SubStream) and evaluates the exact triangle-count delta
//     of each proposal against the round-start adjacency without
//     mutating it. The four scans of the serial engine fuse into one
//     sweep: for any node w outside the swap's endpoint set, the net
//     delta of remove(i,j), remove(a,b), add(i,b), add(a,j) factors as
//
//         delta_w = (A_iw - A_aw) * (A_bw - A_jw)
//
//     so a single ordered intersection of the unions N(i)|N(a) and
//     N(b)|N(j) over the sorted neighbor rows (sortedRows) yields every
//     delta, while the handful of endpoint-internal contributions go
//     through a 4x4 overlay matrix that replays the serial op order
//     exactly. Shards write disjoint buffers, so any number of workers
//     may execute them. They run on a parallel.Pool that lives for the
//     whole RewireSharded call: its helper goroutines start once, spin
//     briefly between rounds and park when idle, the calling goroutine
//     claims shards alongside them, and a deferred Close joins every
//     helper on every return path, cancellation included. At width 1 the
//     pool is a plain loop and starts no goroutine.
//  2. Commit (serial, fixed order). Proposals are applied in a fixed
//     interleaved shard order. A proposal whose four endpoints are
//     untouched by earlier commits of the same round reuses its
//     precomputed per-degree delta verbatim (degrees are invariant, so
//     it is still exact); a conflicting proposal is re-evaluated against
//     the live state. Rejected proposals — the overwhelming majority —
//     cost one pass over a handful of per-degree deltas and mutate
//     nothing.
//
// Because shard decomposition, sub-stream seeding, quota allocation and
// commit order are all functions of (input, Seed1, Seed2, Shards,
// RoundSize) — never of scheduling — the output graph, the final
// candidate endpoints and every RewireStats field are byte-identical at
// any Workers value, including 1. Workers is a wall-clock knob only.
//
// What DOES change the bytes: Seed1/Seed2 (by design), Shards and
// RoundSize (they define the proposal sequence). Their defaults are
// therefore part of the determinism contract and as frozen as the
// serial engine's accept rule.

// DefaultRewireShards is the default shard count of RewireSharded: the
// number of independent proposal streams the degree-bucket space is
// partitioned into. It bounds useful parallelism and is part of the
// output contract — changing it re-keys every seeded result.
const DefaultRewireShards = 16

// DefaultRewireRoundSize is the default number of proposals evaluated per
// round across all shards. Larger rounds amortize the propose/commit
// barrier but raise the chance a proposal conflicts with an earlier
// commit of the same round (forcing a serial re-evaluation). Part of the
// output contract, like DefaultRewireShards.
const DefaultRewireRoundSize = 256

// ShardedRewireOptions configures RewireSharded. The zero value of every
// field except TargetClustering selects a documented default.
type ShardedRewireOptions struct {
	// TargetClustering is the estimated degree-dependent clustering
	// coefficient c-hat(k) the rewiring tries to match.
	TargetClustering map[int]float64
	// RC is the rewiring-attempt coefficient: the engine issues
	// RC * len(candidates) proposals in total (paper default 500).
	RC float64
	// Seed1, Seed2 seed the per-shard proposal streams through
	// sampling.SubStream(Seed1, Seed2, shard). They select the result.
	Seed1, Seed2 uint64
	// ForbidDegenerate rejects swaps that would create a self-loop or a
	// parallel edge (same semantics as RewireOptions.ForbidDegenerate).
	ForbidDegenerate bool
	// Workers bounds how many shards evaluate concurrently during the
	// propose phase. <= 0 selects parallel.DefaultWorkers. The propose
	// pool's width is Workers clamped to the shard count and to
	// runtime.GOMAXPROCS. Workers never affects the output, only the wall
	// clock.
	Workers int
	// Trace, when set, receives two aggregate timers — "rewire/propose"
	// and "rewire/commit" — accumulating the per-round phase split across
	// every round of the run. Like Workers it is wall-clock-only: the
	// timers read the monotonic clock and nothing else, so the output
	// graph and RewireStats are byte-identical with and without one.
	Trace *obs.Trace
	// Ctx, when set, is polled non-blockingly at the top of every
	// propose/commit round: once it is done the engine stops issuing
	// rounds and returns the graph as committed so far — valid (it still
	// realizes the degree vector and JDM) but only partially rewired, with
	// RewireStats reporting the rounds actually run. Callers that must not
	// observe partial results (core.Restore) re-check the context after
	// the engine returns and discard the graph. The poll reads the context
	// and nothing else — no RNG draw, no map walk — so a run the context
	// never interrupts is byte-identical to one with Ctx nil: cancellation
	// can abort an output, never alter one.
	Ctx context.Context

	// forceMergeEval pins the evaluator to the merge walk regardless of
	// graph size. Test hook: the two evaluators must produce identical
	// bytes, and this is how the equivalence test forces the slow one.
	forceMergeEval bool
	// Shards overrides DefaultRewireShards (<= 0 selects the default).
	// Part of the output contract.
	Shards int
	// RoundSize overrides DefaultRewireRoundSize (<= 0 selects the
	// default). Part of the output contract.
	RoundSize int
}

func (o ShardedRewireOptions) shards() int {
	if o.Shards <= 0 {
		return DefaultRewireShards
	}
	return o.Shards
}

func (o ShardedRewireOptions) roundSize() int {
	if o.RoundSize <= 0 {
		return DefaultRewireRoundSize
	}
	return o.RoundSize
}

// RewireSharded runs Algorithm-6 rewiring with sharded parallel proposal
// evaluation. Inputs and outputs mirror Rewire: fixed edges are never
// touched, candidates is mutated in place to its final endpoints, and the
// returned graph realizes the same degree vector and joint degree matrix
// as fixed+candidates. The result is a deterministic function of the
// inputs and (Seed1, Seed2, Shards, RoundSize) — identical at any worker
// count — but it is a different (equally valid) rewiring trajectory than
// the serial engine's for any seed: the two engines share state and
// accept semantics, not proposal sequences.
func RewireSharded(n int, fixed []graph.Edge, candidates []graph.Edge, opts ShardedRewireOptions) (*graph.Graph, RewireStats) {
	st, rows := newShardedState(n, fixed, candidates, opts.TargetClustering)
	stats := RewireStats{InitialL1: st.distance()}
	if len(candidates) > 0 && st.normC > 0 {
		total := int(opts.RC * float64(len(candidates)))
		newShardedRun(st, rows, opts).run(total, &stats)
	}
	stats.FinalL1 = st.distance()
	g := graph.NewWithDegrees(st.deg)
	for _, e := range fixed {
		g.AddEdge(e.U, e.V)
	}
	for i, e := range st.ends {
		candidates[i] = e
		g.AddEdge(e.U, e.V)
	}
	return g, stats
}

// sortedRows is the rewiring adjacency as per-node sorted neighbor rows
// with parallel multiplicity and neighbor-degree arrays, all carved from
// flat arenas. The propose phase reads it concurrently (merge and gallop
// intersections instead of hash probes); only commit-phase accepts mutate
// it — a few ordered memmoves per accepted swap. Node degrees are
// rewiring invariants, so the dg array never goes stale. Row capacity is
// deg[u]: a node's distinct-neighbor count can never exceed its degree.
type sortedRows struct {
	off []int   // row start in the arenas
	ln  []int32 // current distinct-neighbor count of each row
	nbr []int32 // sorted neighbor IDs
	cnt []int32 // multiplicities, parallel to nbr
	dg  []int32 // neighbor degrees, parallel to nbr

	// sig holds a sigWords-word Bloom signature of each row's neighbor
	// set (one hashed bit per neighbor, from hw/hm). A clear bit proves
	// absence; set bits prove nothing — exactly the one-sided error the
	// emptyEval fast-reject filter needs. Signatures are a pure
	// performance cache: they influence which proposals skip the sweep,
	// never what any proposal evaluates to.
	sig []uint64
	hw  []uint8  // node -> signature word index of its hashed bit
	hm  []uint64 // node -> signature bit mask
}

// sigWords is the per-row signature width: 8 words = 512 bits = one cache
// line per node.
const sigWords = 8

// initSig sizes the signature arrays and precomputes each node's hashed
// bit (SplitMix64 finalizer — one multiplicative hash is plenty for a
// one-bit-per-member filter).
func (sr *sortedRows) initSig(n int) {
	sr.sig = make([]uint64, n*sigWords)
	sr.hw = make([]uint8, n)
	sr.hm = make([]uint64, n)
	for u := 0; u < n; u++ {
		h := (uint64(u) + 0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9
		h ^= h >> 29
		sr.hw[u] = uint8((h >> 6) % sigWords)
		sr.hm[u] = 1 << (h & 63)
	}
}

// rebuildSig recomputes node u's signature from its current row.
func (sr *sortedRows) rebuildSig(u int32) {
	base := int(u) * sigWords
	for t := 0; t < sigWords; t++ {
		sr.sig[base+t] = 0
	}
	o, l := sr.off[u], int(sr.ln[u])
	for _, w := range sr.nbr[o : o+l] {
		sr.sig[base+int(sr.hw[w])] |= sr.hm[w]
	}
}

// emptyEval reports whether the swap (i,j)+(a,b) -> (i,b)+(a,j) provably
// produces an empty delta set, i.e. is a guaranteed rejection, without
// walking any row. That holds when (1) the unions N(i)|N(a) and N(b)|N(j)
// share no node — no sweep term — and (2) none of the four cross pairs
// (i,a), (i,b), (j,a), (j,b) is adjacent — every endpoint-matrix product
// then contains a zero factor (the always-adjacent pairs (i,j) and (a,b)
// only ever multiply a cross pair). Both facts are established through
// clear signature bits, so a true result is exact; a false result merely
// falls through to the full evaluation. Degenerate proposals (shared or
// self-looped endpoints) put one row on both sides and fail the
// signature test on their own overlap, so they are never fast-rejected.
func (sr *sortedRows) emptyEval(i, j, a, b int32) bool {
	si := sr.sig[int(i)*sigWords:]
	sa := sr.sig[int(a)*sigWords:]
	sb := sr.sig[int(b)*sigWords:]
	sj := sr.sig[int(j)*sigWords:]
	var and uint64
	for t := 0; t < sigWords; t++ {
		and |= (si[t] | sa[t]) & (sb[t] | sj[t])
	}
	if and != 0 {
		return false
	}
	return si[sr.hw[a]]&sr.hm[a] == 0 && si[sr.hw[b]]&sr.hm[b] == 0 &&
		sj[sr.hw[a]]&sr.hm[a] == 0 && sj[sr.hw[b]]&sr.hm[b] == 0
}

// newShardedState builds the rewiring state for the sharded engine
// directly from the edge lists: sorted neighbor rows instead of the
// serial engine's hash-based adjset (st.adj stays nil — nothing in the
// sharded path touches it), and triangle counts via ordered row
// intersections instead of per-pair hash probes. The resulting state is
// value-identical to newRewireState on the same input (triangle counts
// are exact integers, and term/sum use the same expressions in the same
// accumulation order), which TestShardedStateMatchesSerial pins.
func newShardedState(n int, fixed, candidates []graph.Edge, target map[int]float64) (*rewireState, *sortedRows) {
	st := &rewireState{
		deg: make([]int, n),
		t:   make([]int64, n),
	}
	bumpDeg := func(e graph.Edge) {
		if e.U == e.V {
			st.deg[e.U] += 2
			return
		}
		st.deg[e.U]++
		st.deg[e.V]++
	}
	for _, e := range fixed {
		bumpDeg(e)
	}
	for _, e := range candidates {
		bumpDeg(e)
	}

	// Sorted rows straight from the edges: raw neighbor fill, per-row
	// sort, then run-length compression into (nbr, cnt).
	sr := &sortedRows{off: make([]int, n+1), ln: make([]int32, n)}
	total := 0
	for u, d := range st.deg {
		sr.off[u] = total
		total += d
	}
	sr.off[n] = total
	sr.nbr = make([]int32, total)
	sr.cnt = make([]int32, total)
	sr.dg = make([]int32, total)
	fill := make([]int32, n) // raw entries written per row so far
	addRaw := func(e graph.Edge) {
		if e.U == e.V {
			return // loops carry degree but no adjacency
		}
		sr.nbr[sr.off[e.U]+int(fill[e.U])] = int32(e.V)
		fill[e.U]++
		sr.nbr[sr.off[e.V]+int(fill[e.V])] = int32(e.U)
		fill[e.V]++
	}
	for _, e := range fixed {
		addRaw(e)
	}
	for _, e := range candidates {
		addRaw(e)
	}
	for u := 0; u < n; u++ {
		o, raw := sr.off[u], int(fill[u])
		row := sr.nbr[o : o+raw]
		slices.Sort(row)
		w := 0
		for x := 0; x < raw; {
			y := x + 1
			for y < raw && row[y] == row[x] {
				y++
			}
			row[w] = row[x]
			sr.cnt[o+w] = int32(y - x)
			w++
			x = y
		}
		sr.ln[u] = int32(w)
		for x := 0; x < w; x++ {
			sr.dg[o+x] = int32(st.deg[row[x]])
		}
	}
	sr.initSig(n)
	for u := 0; u < n; u++ {
		sr.rebuildSig(int32(u))
	}

	kmax := 0
	for _, d := range st.deg {
		if d > kmax {
			kmax = d
		}
	}
	for k := range target {
		if k > kmax {
			kmax = k
		}
	}
	st.nk = make([]int64, kmax+1)
	st.sumT = make([]int64, kmax+1)
	st.tgt = make([]float64, kmax+1)
	st.term = make([]float64, kmax+1)
	st.inDirty = make([]bool, kmax+1)
	for _, d := range st.deg {
		st.nk[d]++
	}
	for k, c := range target {
		st.tgt[k] = c
	}
	for k := range st.tgt {
		st.normC += st.tgt[k]
	}

	// Triangle counts by mark-and-probe: every adjacent pair u < v
	// contributes A_uv * A_uw * A_vw to t[w] for each common neighbor w —
	// exactly the unordered neighbor-pair sum the serial init computes.
	// Row u's multiplicities are stamped into a dense array once, then
	// each higher-numbered neighbor row is probed against the stamps; the
	// integer sums commute, so t is value-identical to the serial init.
	mark := make([]int64, n)
	for u := 0; u < n; u++ {
		ou, lu := sr.off[u], int(sr.ln[u])
		for x := 0; x < lu; x++ {
			mark[sr.nbr[ou+x]] = int64(sr.cnt[ou+x])
		}
		for x := 0; x < lu; x++ {
			v := sr.nbr[ou+x]
			if int(v) <= u {
				continue
			}
			auv := int64(sr.cnt[ou+x])
			ov, endV := sr.off[v], sr.off[v]+int(sr.ln[v])
			for yi := ov; yi < endV; yi++ {
				w := sr.nbr[yi]
				// Row v never contains v itself, and w == u only when u is
				// in both rows' intersection position — skip it; everything
				// else marked is a common neighbor.
				if int(w) != u && mark[w] != 0 {
					st.t[w] += auv * mark[w] * int64(sr.cnt[yi])
				}
			}
		}
		for x := 0; x < lu; x++ {
			mark[sr.nbr[ou+x]] = 0
		}
	}
	for u := 0; u < n; u++ {
		st.sumT[st.deg[u]] += st.t[u]
	}
	for k := range st.term {
		st.term[k] = st.termAt(k)
		st.sum += st.term[k]
	}

	st.ends = append([]graph.Edge(nil), candidates...)
	st.buckets = make([][]halfRef, kmax+1)
	st.pos = make([][2]int, len(candidates))
	for i, e := range st.ends {
		st.placeHalf(halfRef{i, 0}, st.deg[e.U])
		st.placeHalf(halfRef{i, 1}, st.deg[e.V])
	}
	return st, sr
}

// buildRows constructs the sorted mirror of an existing serial state's
// adjset adjacency. The engine itself uses newShardedState; this is the
// bridge the white-box differential tests use to run the read-only
// evaluator against a state the serial mutate path owns.
func buildRows(st *rewireState) *sortedRows {
	n := len(st.deg)
	sr := &sortedRows{off: make([]int, n+1), ln: make([]int32, n)}
	total := 0
	for u, d := range st.deg {
		sr.off[u] = total
		total += d
	}
	sr.off[n] = total
	sr.nbr = make([]int32, total)
	sr.cnt = make([]int32, total)
	sr.dg = make([]int32, total)
	for u := 0; u < n; u++ {
		keys, counts := st.adj.Row(u)
		o := sr.off[u]
		w := o
		for i, k := range keys {
			if k == adjset.Empty {
				continue
			}
			sr.nbr[w] = k
			sr.cnt[w] = counts[i]
			w++
		}
		sr.ln[u] = int32(w - o)
		row := sr.nbr[o:w]
		// Keep nbr/cnt aligned while sorting: insertion sort, rows are
		// small and nearly always fit in cache.
		for x := 1; x < len(row); x++ {
			for y := x; y > 0 && row[y] < row[y-1]; y-- {
				row[y], row[y-1] = row[y-1], row[y]
				sr.cnt[o+y], sr.cnt[o+y-1] = sr.cnt[o+y-1], sr.cnt[o+y]
			}
		}
		for x := o; x < w; x++ {
			sr.dg[x] = int32(st.deg[sr.nbr[x]])
		}
	}
	sr.initSig(n)
	for u := 0; u < n; u++ {
		sr.rebuildSig(int32(u))
	}
	return sr
}

// get returns the multiplicity of {u,w}: a forward scan with early exit
// on short rows (they are sorted), binary search on long ones.
func (sr *sortedRows) get(u, w int32) int32 {
	o, l := sr.off[u], int(sr.ln[u])
	row := sr.nbr[o : o+l]
	if l <= 24 {
		for x, n := range row {
			if n >= w {
				if n == w {
					return sr.cnt[o+x]
				}
				return 0
			}
		}
		return 0
	}
	lo, hi := 0, l
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid] < w {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < l && row[lo] == w {
		return sr.cnt[o+lo]
	}
	return 0
}

func (sr *sortedRows) find(u, w int32) int {
	o, l := sr.off[u], int(sr.ln[u])
	row := sr.nbr[o : o+l]
	lo, hi := 0, l
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid] < w {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return o + lo
}

// inc adds one {u,w} instance to u's row, keeping it sorted.
func (sr *sortedRows) inc(u, w int32, degW int) {
	at := sr.find(u, w)
	o, l := sr.off[u], int(sr.ln[u])
	if at < o+l && sr.nbr[at] == w {
		sr.cnt[at]++
		return
	}
	end := o + l
	copy(sr.nbr[at+1:end+1], sr.nbr[at:end])
	copy(sr.cnt[at+1:end+1], sr.cnt[at:end])
	copy(sr.dg[at+1:end+1], sr.dg[at:end])
	sr.nbr[at] = w
	sr.cnt[at] = 1
	sr.dg[at] = int32(degW)
	sr.ln[u]++
	sr.sig[int(u)*sigWords+int(sr.hw[w])] |= sr.hm[w]
}

// dec removes one {u,w} instance from u's row.
func (sr *sortedRows) dec(u, w int32) {
	at := sr.find(u, w)
	if sr.cnt[at] > 1 {
		sr.cnt[at]--
		return
	}
	end := sr.off[u] + int(sr.ln[u])
	copy(sr.nbr[at:end-1], sr.nbr[at+1:end])
	copy(sr.cnt[at:end-1], sr.cnt[at+1:end])
	copy(sr.dg[at:end-1], sr.dg[at+1:end])
	sr.ln[u]--
	sr.rebuildSig(u)
}

// tDelta is one node's triangle-count delta under a proposed swap.
type tDelta struct {
	w int32
	d int64
}

// kDelta is one degree class's triangle-sum delta under a proposed swap —
// all the accept test needs. Spans of these are what makes rejects cheap.
type kDelta struct {
	k int32
	d int64
}

// propEvaluated marks a proposal whose delta was computed in the propose
// phase (as opposed to rejected before evaluation).
const propEvaluated uint8 = 1

// proposal is one candidate edge swap: exchange the partners of half
// (e1,s1) and half (e2,s2). i,j,a,b snapshot the endpoints the propose
// phase evaluated, so the commit phase can detect staleness. t0:t1 and
// k0:k1 are the delta spans in the owning shard's scratch buffers.
type proposal struct {
	e1, e2     int32
	s1, s2     uint8
	flags      uint8
	i, j, a, b int32
	t0, t1     int32
	k0, k1     int32
}

// denseEvalMaxN bounds the graph size for which the dense mark-and-probe
// evaluator is used: its per-scratch mark arrays cost 12 bytes per node.
// Larger graphs fall back to the four-pointer merge walk, which needs no
// per-node scratch. Both evaluators emit the identical delta set, so the
// cutover never changes result bytes — it is a time/space trade only.
const denseEvalMaxN = 1 << 15

// uline is one U-side intersection hit of the dense evaluator: node w
// with its multiplicities in the rows of i and a.
type uline struct {
	w      int32
	iw, aw int32
}

// vmark is the dense evaluator's per-node V-side mark: the stamp says
// whether the entry belongs to the current evaluation, b/j are the node's
// multiplicities in the rows of b and j. One struct keeps the three
// fields on one cache line — the mark array is hit at random indices.
type vmark struct {
	stamp uint32
	b, j  int32
}

// evalScratch is the reusable buffer set of one evaluation stream — one
// per shard plus one for commit-phase re-evaluations.
type evalScratch struct {
	ds    []int64 // per-degree accumulator, always zero between proposals
	inD   []bool
	dirty []int32
	touch []tDelta // per-node deltas, consumed only on accept
	kd    []kDelta // per-degree deltas sorted by degree, drive the accept test

	// Dense-evaluator mark array (nil beyond denseEvalMaxN): one entry
	// per node, epoch-stamped so no clearing is needed between
	// proposals; ul collects U-side hits.
	vm    []vmark
	epoch uint32
	ul    []uline
}

func newEvalScratch(kmax, n int) *evalScratch {
	sc := &evalScratch{ds: make([]int64, kmax+1), inD: make([]bool, kmax+1)}
	if n <= denseEvalMaxN {
		sc.vm = make([]vmark, n)
	}
	return sc
}

// shardedRun is the engine state of one RewireSharded call on top of the
// shared rewireState.
type shardedRun struct {
	st        *rewireState
	rows      *sortedRows
	forbid    bool
	workers   int
	shards    int
	roundSize int

	round      uint32          // current round number; stamps refer to it
	forceMerge bool            // test hook, see ShardedRewireOptions.forceMergeEval
	ctx        context.Context // round-boundary cancellation; nil = never
	rngs       []*rand.Rand
	degsOf     [][]int32 // shard -> degree values it owns

	// Per-shard propose-phase outputs, reused across rounds. Only shard
	// s's job writes index s, so the propose phase is race-free.
	props   [][]proposal
	scratch []*evalScratch
	cumK    [][]int32
	cumH    [][]int32

	// Commit-phase state.
	stamp   []uint32 // node -> round of last adjacency mutation
	estamp  []uint32 // candidate edge -> round of last half re-pointing
	csc     *evalScratch
	newTerm []float64

	// Aggregate round timers (nil when untraced): the propose/commit
	// wall-clock split across every round. Observability only.
	proposeTm, commitTm *obs.Timer

	hs, quotas []int // per-round pairable-half counts and quotas
	remOrder   []int // largest-remainder allocation scratch
}

func newShardedRun(st *rewireState, rows *sortedRows, opts ShardedRewireOptions) *shardedRun {
	r := &shardedRun{
		st:         st,
		rows:       rows,
		forceMerge: opts.forceMergeEval,
		ctx:        opts.Ctx,
		forbid:     opts.ForbidDegenerate,
		workers:    opts.Workers,
		shards:     opts.shards(),
		roundSize:  opts.roundSize(),
		proposeTm:  opts.Trace.Timer("rewire/propose"),
		commitTm:   opts.Trace.Timer("rewire/commit"),
	}
	kmax := len(st.buckets) - 1
	// Assign degree buckets to shards by greedy longest-processing-time
	// on the initial half counts (size desc, degree asc): hub buckets
	// land on separate shards, so hub-heavy graphs spread their proposal
	// load instead of serializing it on one stream. The assignment is a
	// pure function of the input and stays fixed for the whole run.
	type kv struct{ k, size int }
	order := make([]kv, 0, kmax+1)
	for k := 0; k <= kmax; k++ {
		order = append(order, kv{k, len(st.buckets[k])})
	}
	slices.SortFunc(order, func(a, b kv) int {
		if a.size != b.size {
			return b.size - a.size
		}
		return a.k - b.k
	})
	r.degsOf = make([][]int32, r.shards)
	load := make([]int, r.shards)
	for _, e := range order {
		s := 0
		for t := 1; t < r.shards; t++ {
			if load[t] < load[s] {
				s = t
			}
		}
		load[s] += e.size
		r.degsOf[s] = append(r.degsOf[s], int32(e.k))
	}
	// Selection walks each shard's degrees in ascending order.
	for s := range r.degsOf {
		slices.Sort(r.degsOf[s])
	}
	r.rngs = make([]*rand.Rand, r.shards)
	r.scratch = make([]*evalScratch, r.shards)
	for s := range r.rngs {
		r.rngs[s] = sampling.SubStream(opts.Seed1, opts.Seed2, uint64(s))
		r.scratch[s] = newEvalScratch(kmax, len(st.deg))
	}
	r.props = make([][]proposal, r.shards)
	r.cumK = make([][]int32, r.shards)
	r.cumH = make([][]int32, r.shards)
	r.stamp = make([]uint32, len(st.deg))
	r.estamp = make([]uint32, len(st.ends))
	r.csc = newEvalScratch(kmax, len(st.deg))
	r.hs = make([]int, r.shards)
	r.quotas = make([]int, r.shards)
	r.remOrder = make([]int, r.shards)
	return r
}

// run drives the propose/commit rounds until the attempt budget of
// `total` proposals is spent or the context fires between rounds.
// Attempts is bumped exactly total times when the run completes — the
// same budget accounting as the serial loop; a cancelled run leaves the
// unspent budget uncounted, which is how RewireStats reports the abort.
func (r *shardedRun) run(total int, stats *RewireStats) {
	pool := parallel.NewPool(r.workers, r.shards, func(_, s int) {
		r.shardJob(s, r.quotas[s])
	})
	defer pool.Close()
	for done := 0; done < total; {
		if r.ctx != nil {
			select {
			case <-r.ctx.Done():
				// Cooperative abort at a round boundary: the committed
				// prefix of rounds is a valid (degree- and JDM-preserving)
				// graph, and no state from the abandoned rounds — RNG
				// positions included — has been touched.
				return
			default:
			}
		}
		p := min(r.roundSize, total-done)
		if !r.allocate(p) {
			// No degree bucket holds two candidate halves: every
			// remaining proposal would be rejected before evaluation.
			stats.Attempts += total - done
			return
		}
		r.round++
		stats.Rounds++
		r.proposeTm.Start()
		pool.Run(r.shards)
		r.proposeTm.Stop()
		r.commitTm.Start()
		r.commitRound(stats)
		r.commitTm.Stop()
		done += p
	}
}

// allocate computes each shard's proposal quota for a round of p
// proposals, proportional to its current pairable half count (buckets
// with at least two halves) via largest-remainder rounding. Reports
// whether any proposals are possible at all.
func (r *shardedRun) allocate(p int) bool {
	st := r.st
	total := 0
	for s, degs := range r.degsOf {
		h := 0
		for _, k := range degs {
			if n := len(st.buckets[k]); n >= 2 {
				h += n
			}
		}
		r.hs[s] = h
		total += h
	}
	if total == 0 {
		return false
	}
	assigned := 0
	for s := range r.quotas {
		q := p * r.hs[s] / total
		r.quotas[s] = q
		assigned += q
		r.remOrder[s] = s
	}
	if rest := p - assigned; rest > 0 {
		// Largest fractional remainder first, shard index breaking ties:
		// deterministic, and never selects a shard with no halves (its
		// remainder is zero and at least `rest` shards have a larger one).
		slices.SortFunc(r.remOrder, func(a, b int) int {
			ra, rb := p*r.hs[a]%total, p*r.hs[b]%total
			if ra != rb {
				return rb - ra
			}
			return a - b
		})
		for k := 0; k < rest; k++ {
			r.quotas[r.remOrder[k]]++
		}
	}
	return true
}

// shardJob draws and evaluates one shard's proposals for the current
// round. It reads shared state (adjacency rows, endpoints, buckets) that
// no one mutates during the propose phase and writes only shard-owned
// buffers, so jobs are race-free and their outputs independent of how
// they are scheduled onto workers.
func (r *shardedRun) shardJob(s, quota int) {
	props := r.props[s][:0]
	if quota == 0 {
		r.props[s] = props
		return
	}
	st := r.st
	rng := r.rngs[s]
	sc := r.scratch[s]
	sc.touch = sc.touch[:0]
	sc.kd = sc.kd[:0]
	// Pairable-bucket prefix sums: the shard's proposal index. Buckets
	// with fewer than two halves cannot form a swap, so they are excluded
	// from selection entirely — on hub-heavy graphs this is what keeps
	// near-singleton hub buckets from burning the attempt budget on
	// self-pairings.
	cumK, cumH := r.cumK[s][:0], r.cumH[s][:0]
	h := int32(0)
	for _, k := range r.degsOf[s] {
		if n := len(st.buckets[k]); n >= 2 {
			h += int32(n)
			cumK = append(cumK, k)
			cumH = append(cumH, h)
		}
	}
	r.cumK[s], r.cumH[s] = cumK, cumH
	for q := 0; q < quota; q++ {
		var p proposal
		if h > 0 {
			// First half uniform over the shard's pairable halves, second
			// uniform over the first's bucket — the same two-draw shape as
			// the serial engine, restricted to pairable buckets.
			x := int32(rng.IntN(int(h)))
			lo := 0 // first cumH[lo] > x; shards own a handful of buckets
			for cumH[lo] <= x {
				lo++
			}
			base := int32(0)
			if lo > 0 {
				base = cumH[lo-1]
			}
			b := st.buckets[cumK[lo]]
			h1 := b[x-base]
			h2 := b[rng.IntN(len(b))]
			p = proposal{e1: int32(h1.edge), s1: uint8(h1.side), e2: int32(h2.edge), s2: uint8(h2.side)}
			r.evalProposal(&p, sc)
		}
		props = append(props, p)
	}
	r.props[s] = props
}

// evalProposal applies the serial engine's pre-checks and, if they pass,
// computes the proposal's exact delta against the round-start state.
// Read-only on shared state.
func (r *shardedRun) evalProposal(p *proposal, sc *evalScratch) {
	st := r.st
	if p.e1 == p.e2 {
		return
	}
	i := st.endpoint(int(p.e1), int(p.s1))
	j := st.endpoint(int(p.e1), 1-int(p.s1))
	a := st.endpoint(int(p.e2), int(p.s2))
	b := st.endpoint(int(p.e2), 1-int(p.s2))
	p.i, p.j, p.a, p.b = int32(i), int32(j), int32(a), int32(b)
	if i == a || j == b {
		return
	}
	if r.forbid && (i == b || a == j || r.rows.get(int32(i), int32(b)) > 0 || r.rows.get(int32(a), int32(j)) > 0) {
		return
	}
	p.t0, p.k0 = int32(len(sc.touch)), int32(len(sc.kd))
	if !r.rows.emptyEval(int32(i), int32(j), int32(a), int32(b)) {
		r.evalSwap(sc, int32(i), int32(j), int32(a), int32(b))
	}
	p.t1, p.k1 = int32(len(sc.touch)), int32(len(sc.kd))
	p.flags = propEvaluated
}

// commitRound applies the round's proposals serially, interleaving the
// shards position-by-position — a fixed order, so the result does not
// depend on how the propose phase was scheduled.
func (r *shardedRun) commitRound(stats *RewireStats) {
	maxq := 0
	for _, q := range r.quotas {
		if q > maxq {
			maxq = q
		}
	}
	for pi := 0; pi < maxq; pi++ {
		for s := 0; s < r.shards; s++ {
			if pi < r.quotas[s] {
				r.commitOne(s, pi, stats)
			}
		}
	}
}

// commitOne re-validates one proposal against the live state and applies
// it if the clustering distance strictly decreases. The precomputed delta
// is reused when no earlier commit of this round touched any of the four
// endpoints (it is then still exact); otherwise the swap is re-evaluated
// in place — the only serial evaluation work in the engine.
func (r *shardedRun) commitOne(s, pi int, stats *RewireStats) {
	st := r.st
	p := &r.props[s][pi]
	stats.Attempts++
	if p.e1 == p.e2 {
		// Same edge drawn twice, or the zero proposal of a shard that ran
		// out of pairable halves mid-round. Either way: burn the attempt.
		return
	}
	var i, j, a, b int
	var touch []tDelta
	var kd []kDelta
	if r.estamp[p.e1] != r.round && r.estamp[p.e2] != r.round {
		// Neither edge was re-pointed this round, so the endpoints still
		// match the propose-phase snapshot and every pre-check verdict
		// stands. A proposal rejected before evaluation rejects again.
		if p.flags&propEvaluated == 0 {
			return
		}
		i, j, a, b = int(p.i), int(p.j), int(p.a), int(p.b)
		if r.stamp[i] != r.round && r.stamp[j] != r.round && r.stamp[a] != r.round && r.stamp[b] != r.round {
			// No endpoint's adjacency changed either: the precomputed
			// delta (and any forbid verdict) is still exact.
			sc := r.scratch[s]
			touch = sc.touch[p.t0:p.t1]
			kd = sc.kd[p.k0:p.k1]
			r.resolve(p, i, j, a, b, touch, kd, stats)
			return
		}
	} else {
		i = st.endpoint(int(p.e1), int(p.s1))
		j = st.endpoint(int(p.e1), 1-int(p.s1))
		a = st.endpoint(int(p.e2), int(p.s2))
		b = st.endpoint(int(p.e2), 1-int(p.s2))
		if st.deg[i] != st.deg[a] {
			// A re-pointed half landed in a different bucket; the pairing
			// no longer preserves the JDM.
			return
		}
		if i == a || j == b {
			return
		}
	}
	if r.forbid && (i == b || a == j || r.rows.get(int32(i), int32(b)) > 0 || r.rows.get(int32(a), int32(j)) > 0) {
		return
	}
	stats.Recomputed++
	sc := r.csc
	sc.touch = sc.touch[:0]
	sc.kd = sc.kd[:0]
	if !r.rows.emptyEval(int32(i), int32(j), int32(a), int32(b)) {
		r.evalSwap(sc, int32(i), int32(j), int32(a), int32(b))
	}
	touch = sc.touch
	kd = sc.kd
	r.resolve(p, i, j, a, b, touch, kd, stats)
}

// resolve runs the accept test for a validated proposal and applies the
// swap when the clustering distance strictly decreases.
func (r *shardedRun) resolve(p *proposal, i, j, a, b int, touch []tDelta, kd []kDelta, stats *RewireStats) {
	st := r.st
	// The accept test: replay the serial engine's settle — term deltas
	// accumulated in ascending degree order (kd is sorted) so the float
	// sum has one fixed order.
	newSum := st.sum
	nt := r.newTerm[:0]
	for _, e := range kd {
		v := st.termWith(int(e.k), st.sumT[e.k]+e.d)
		nt = append(nt, v)
		newSum += v - st.term[e.k]
	}
	r.newTerm = nt
	if newSum < st.sum {
		for _, td := range touch {
			st.t[td.w] += td.d
		}
		for idx, e := range kd {
			st.sumT[e.k] += e.d
			st.term[e.k] = nt[idx]
		}
		st.sum = newSum
		degJ, degB := st.deg[j], st.deg[b]
		if i != j {
			r.rows.dec(int32(i), int32(j))
			r.rows.dec(int32(j), int32(i))
		}
		if a != b {
			r.rows.dec(int32(a), int32(b))
			r.rows.dec(int32(b), int32(a))
		}
		if i != b {
			r.rows.inc(int32(i), int32(b), degB)
			r.rows.inc(int32(b), int32(i), st.deg[i])
		}
		if a != j {
			r.rows.inc(int32(a), int32(j), degJ)
			r.rows.inc(int32(j), int32(a), st.deg[a])
		}
		e1, s1 := int(p.e1), int(p.s1)
		e2, s2 := int(p.e2), int(p.s2)
		st.removeHalf(halfRef{e1, 1 - s1}, degJ)
		st.removeHalf(halfRef{e2, 1 - s2}, degB)
		st.setEndpoint(e1, 1-s1, b)
		st.setEndpoint(e2, 1-s2, j)
		st.placeHalf(halfRef{e1, 1 - s1}, degB)
		st.placeHalf(halfRef{e2, 1 - s2}, degJ)
		r.stamp[i], r.stamp[j], r.stamp[a], r.stamp[b] = r.round, r.round, r.round, r.round
		r.estamp[e1], r.estamp[e2] = r.round, r.round
		stats.Accepted++
	}
}

// add records one node's delta in both the per-node and per-degree
// accumulators.
func (sc *evalScratch) add(w, k int32, d int64) {
	sc.touch = append(sc.touch, tDelta{w, d})
	if !sc.inD[k] {
		sc.inD[k] = true
		sc.dirty = append(sc.dirty, k)
	}
	sc.ds[k] += d
}

// evalSwap appends the exact per-node (touch) and per-degree (kd) deltas
// of the swap (i,j)+(a,b) -> (i,b)+(a,j) to the scratch, never writing
// shared state — evaluations may run concurrently.
//
// For nodes outside the endpoint set {i,j,a,b} the four serial ops net to
// delta_w = (A_iw - A_aw)*(A_bw - A_jw), with the per-op common-neighbor
// sums cn1..cn4 recovered from the same products, so one ordered sweep of
// the four rows replaces the serial engine's four scans (fuseWalk; a
// gallop variant handles hub-lopsided row sets). The overlay corrections
// of half-applied ops only ever concern endpoint pairs, which the sweep
// skips; those go through a 4x4 matrix replaying the exact serial op
// order: remove(i,j), remove(a,b), add(i,b), add(a,j), each removal
// decrementing before its scan, each addition scanning before its
// increment.
//
// kd comes out sorted by degree with exact-zero deltas omitted; touch may
// repeat a node (entries sum).
func (r *shardedRun) evalSwap(sc *evalScratch, i, j, a, b int32) {
	var nodes [4]int32
	nn := 0
	idx := func(x int32) int {
		for k := 0; k < nn; k++ {
			if nodes[k] == x {
				return k
			}
		}
		nodes[nn] = x
		nn++
		return nn - 1
	}
	ii := idx(i)
	ji := idx(j)
	ai := idx(a)
	bi := idx(b)

	op1, op2, op3, op4 := i != j, a != b, i != b, a != j
	// mat holds the endpoint-pair adjacencies plus the overlay of
	// half-applied ops; the dense walk captures the pair values during
	// its row scans, the merge walk cannot see them (an endpoint on one
	// side only never aligns) and probes the rows instead.
	var mat [4][4]int64
	var cn1, cn2, cn3, cn4 int64
	if sc.vm != nil && !r.forceMerge {
		cn1, cn2, cn3, cn4 = r.denseWalk(sc, i, j, a, b, nodes, nn, op1, op2, op3, op4, &mat, ii, ji, ai, bi)
	} else {
		cn1, cn2, cn3, cn4 = r.fuseWalk(sc, i, j, a, b, nodes, nn, op1, op2, op3, op4)
		for x := 1; x < nn; x++ {
			for y := 0; y < x; y++ {
				m := int64(r.rows.get(nodes[x], nodes[y]))
				mat[x][y] = m
				mat[y][x] = m
			}
		}
	}
	deg := r.st.deg
	if nn == 4 && mat[ii][ai]|mat[ii][bi]|mat[ai][ji]|mat[ji][bi] == 0 {
		// No cross pair (i,a), (i,b), (a,j), (j,b) is adjacent, so every
		// endpoint-fixup product carries a zero factor — the always-set
		// pair adjacencies A(i,j), A(a,b) only ever multiply a cross
		// pair. Skip the overlay replay; the walk's cn values are final.
		if d := cn3 - cn1; d != 0 {
			sc.add(i, int32(deg[i]), d)
		}
		if d := cn4 - cn1; d != 0 {
			sc.add(j, int32(deg[j]), d)
		}
		if d := cn4 - cn2; d != 0 {
			sc.add(a, int32(deg[a]), d)
		}
		if d := cn3 - cn2; d != 0 {
			sc.add(b, int32(deg[b]), d)
		}
		sc.drain()
		return
	}
	opFix := func(ui, vi int, sign int64) int64 {
		var cn int64
		u, v := nodes[ui], nodes[vi]
		for k := 0; k < nn; k++ {
			w := nodes[k]
			if w == u || w == v {
				continue
			}
			pu, pv := mat[ui][k], mat[vi][k]
			if pu > 0 && pv > 0 {
				prod := pu * pv
				cn += prod
				sc.add(w, int32(deg[w]), sign*prod)
			}
		}
		return cn
	}
	if op1 {
		mat[ii][ji]--
		mat[ji][ii]--
		cn1 += opFix(ii, ji, -1)
	}
	if op2 {
		mat[ai][bi]--
		mat[bi][ai]--
		cn2 += opFix(ai, bi, -1)
	}
	if op3 {
		cn3 += opFix(ii, bi, +1)
		mat[ii][bi]++
		mat[bi][ii]++
	}
	if op4 {
		cn4 += opFix(ai, ji, +1)
		mat[ai][ji]++
		mat[ji][ai]++
	}
	if d := cn3 - cn1; d != 0 {
		sc.add(i, int32(deg[i]), d)
	}
	if d := cn4 - cn1; d != 0 {
		sc.add(j, int32(deg[j]), d)
	}
	if d := cn4 - cn2; d != 0 {
		sc.add(a, int32(deg[a]), d)
	}
	if d := cn3 - cn2; d != 0 {
		sc.add(b, int32(deg[b]), d)
	}
	sc.drain()
}

// drain flushes the per-degree accumulator into a degree-sorted kd span.
// Insertion sort: the dirty set is a handful of degrees.
func (sc *evalScratch) drain() {
	dirty := sc.dirty
	for x := 1; x < len(dirty); x++ {
		for y := x; y > 0 && dirty[y] < dirty[y-1]; y-- {
			dirty[y], dirty[y-1] = dirty[y-1], dirty[y]
		}
	}
	for _, k := range dirty {
		if d := sc.ds[k]; d != 0 {
			sc.kd = append(sc.kd, kDelta{k, d})
		}
		sc.ds[k] = 0
		sc.inD[k] = false
	}
	sc.dirty = sc.dirty[:0]
}

const walkEnd = int32(0x7fffffff)

// fuseWalk performs the fused sweep: it intersects the merged unions
// N(i)|N(a) and N(b)|N(j), and for every aligned non-endpoint node w
// emits delta_w and accumulates the four per-op common-neighbor sums.
// Rows are short (mean distinct degree of the workload), so a plain
// four-pointer merge beats galloping; proposals whose row sets provably
// cannot intersect never reach this walk at all — the signature filter
// in evalProposal rejects them first.
func (r *shardedRun) fuseWalk(sc *evalScratch, i, j, a, b int32, nodes [4]int32, nn int, op1, op2, op3, op4 bool) (cn1, cn2, cn3, cn4 int64) {
	sr := r.rows
	pi, ei := sr.off[i], sr.off[i]+int(sr.ln[i])
	pa, ea := sr.off[a], sr.off[a]+int(sr.ln[a])
	pb, eb := sr.off[b], sr.off[b]+int(sr.ln[b])
	pj, ej := sr.off[j], sr.off[j]+int(sr.ln[j])
	n0, n1, n2, n3 := nodes[0], int32(-1), int32(-1), int32(-1)
	if nn > 1 {
		n1 = nodes[1]
	}
	if nn > 2 {
		n2 = nodes[2]
	}
	if nn > 3 {
		n3 = nodes[3]
	}

	wi, wa, wb, wj := walkEnd, walkEnd, walkEnd, walkEnd
	if pi < ei {
		wi = sr.nbr[pi]
	}
	if pa < ea {
		wa = sr.nbr[pa]
	}
	if pb < eb {
		wb = sr.nbr[pb]
	}
	if pj < ej {
		wj = sr.nbr[pj]
	}
	for {
		wu := wi
		if wa < wu {
			wu = wa
		}
		wv := wb
		if wj < wv {
			wv = wj
		}
		if wu == walkEnd || wv == walkEnd {
			break
		}
		if wu < wv {
			if wi == wu {
				pi++
				wi = walkEnd
				if pi < ei {
					wi = sr.nbr[pi]
				}
			}
			if wa == wu {
				pa++
				wa = walkEnd
				if pa < ea {
					wa = sr.nbr[pa]
				}
			}
			continue
		}
		if wv < wu {
			if wb == wv {
				pb++
				wb = walkEnd
				if pb < eb {
					wb = sr.nbr[pb]
				}
			}
			if wj == wv {
				pj++
				wj = walkEnd
				if pj < ej {
					wj = sr.nbr[pj]
				}
			}
			continue
		}
		w := wu
		var iw, aw, bw, jw int64
		var k int32
		if wi == w {
			iw = int64(sr.cnt[pi])
			k = sr.dg[pi]
			pi++
			wi = walkEnd
			if pi < ei {
				wi = sr.nbr[pi]
			}
		}
		if wa == w {
			aw = int64(sr.cnt[pa])
			k = sr.dg[pa]
			pa++
			wa = walkEnd
			if pa < ea {
				wa = sr.nbr[pa]
			}
		}
		if wb == w {
			bw = int64(sr.cnt[pb])
			k = sr.dg[pb]
			pb++
			wb = walkEnd
			if pb < eb {
				wb = sr.nbr[pb]
			}
		}
		if wj == w {
			jw = int64(sr.cnt[pj])
			k = sr.dg[pj]
			pj++
			wj = walkEnd
			if pj < ej {
				wj = sr.nbr[pj]
			}
		}
		if w == n0 || w == n1 || w == n2 || w == n3 {
			continue
		}
		pij, pab, pib, paj := iw*jw, aw*bw, iw*bw, aw*jw
		var d int64
		if op1 {
			cn1 += pij
			d -= pij
		}
		if op2 {
			cn2 += pab
			d -= pab
		}
		if op3 {
			cn3 += pib
			d += pib
		}
		if op4 {
			cn4 += paj
			d += paj
		}
		if d != 0 {
			sc.add(w, k, d)
		}
	}
	return cn1, cn2, cn3, cn4
}

// denseWalk is the dense mark-and-probe evaluator: it computes the same
// delta set as fuseWalk by marking the V-side rows (N(b), N(j)) in the
// scratch's epoch-stamped per-node mark array and probing the marks while
// scanning the U-side rows (N(i), N(a)). Four short linear scans with one
// L1-resident random access each replace the merge's data-dependent
// branching, and the scans capture the six endpoint-pair adjacencies as
// they stream by, filling mat for free (aliased endpoints leave their
// diagonal entries zero, matching the probe-based fill: a row never
// contains its own node). Emission order differs from fuseWalk, but the
// emitted multiset of (node, delta) pairs — and therefore the
// degree-sorted kd span and every downstream byte — is identical: deltas
// are integers and their accumulation is order-free.
func (r *shardedRun) denseWalk(sc *evalScratch, i, j, a, b int32, nodes [4]int32, nn int, op1, op2, op3, op4 bool, mat *[4][4]int64, ii, ji, ai, bi int) (cn1, cn2, cn3, cn4 int64) {
	sr := r.rows
	sc.epoch++
	if sc.epoch == 0 {
		clear(sc.vm)
		sc.epoch = 1
	}
	cur := sc.epoch
	vm := sc.vm
	var aij, aia, aib, aaj, ajb, aab int64
	o, l := sr.off[b], int(sr.ln[b])
	for x := o; x < o+l; x++ {
		w := sr.nbr[x]
		c := sr.cnt[x]
		vm[w] = vmark{stamp: cur, b: c}
		if w == j {
			ajb = int64(c)
		}
		if w == i {
			aib = int64(c)
		}
		if w == a {
			aab = int64(c)
		}
	}
	o, l = sr.off[j], int(sr.ln[j])
	for x := o; x < o+l; x++ {
		w := sr.nbr[x]
		c := sr.cnt[x]
		if vm[w].stamp == cur {
			vm[w].j = c
		} else {
			vm[w] = vmark{stamp: cur, j: c}
		}
		if w == i {
			aij = int64(c)
		}
		if w == a {
			aaj = int64(c)
		}
	}
	ul := sc.ul[:0]
	o, l = sr.off[i], int(sr.ln[i])
	for x := o; x < o+l; x++ {
		w := sr.nbr[x]
		if w == a {
			aia = int64(sr.cnt[x])
		}
		if vm[w].stamp == cur {
			ul = append(ul, uline{w, sr.cnt[x], 0})
		}
	}
	o, l = sr.off[a], int(sr.ln[a])
	for x := o; x < o+l; x++ {
		if w := sr.nbr[x]; vm[w].stamp == cur {
			hit := false
			for t := range ul {
				if ul[t].w == w {
					ul[t].aw = sr.cnt[x]
					hit = true
					break
				}
			}
			if !hit {
				ul = append(ul, uline{w, 0, sr.cnt[x]})
			}
		}
	}
	sc.ul = ul
	set := func(x, y int, v int64) {
		if x != y {
			mat[x][y] = v
			mat[y][x] = v
		}
	}
	set(ii, ji, aij)
	set(ii, ai, aia)
	set(ii, bi, aib)
	set(ai, ji, aaj)
	set(ji, bi, ajb)
	set(ai, bi, aab)
	n0, n1, n2, n3 := nodes[0], int32(-1), int32(-1), int32(-1)
	if nn > 1 {
		n1 = nodes[1]
	}
	if nn > 2 {
		n2 = nodes[2]
	}
	if nn > 3 {
		n3 = nodes[3]
	}
	deg := r.st.deg
	for _, e := range ul {
		w := e.w
		if w == n0 || w == n1 || w == n2 || w == n3 {
			continue
		}
		iw, aw := int64(e.iw), int64(e.aw)
		bw, jw := int64(vm[w].b), int64(vm[w].j)
		pij, pab, pib, paj := iw*jw, aw*bw, iw*bw, aw*jw
		var d int64
		if op1 {
			cn1 += pij
			d -= pij
		}
		if op2 {
			cn2 += pab
			d -= pab
		}
		if op3 {
			cn3 += pib
			d += pib
		}
		if op4 {
			cn4 += paj
			d += paj
		}
		if d != 0 {
			sc.add(w, int32(deg[w]), d)
		}
	}
	return cn1, cn2, cn3, cn4
}
