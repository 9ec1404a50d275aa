package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"sgr/internal/core"
	"sgr/internal/graph"
	"sgr/internal/obs"
	"sgr/internal/sampling"
)

// restore-rewire is a closed loop of core.Restore calls on one crawl,
// where phase 4 (dkseries.RewireSharded and its propose pool) takes most
// of each restore and phase 2 a small share.
const (
	rewireDataset = "anybeat"
	rewireScale   = 0.2
	rewireRC      = 100
)

type restoreEnv struct {
	g     *graph.Graph
	crawl *sampling.Crawl
}

func runRestoreRewire(cfg config, rep *report, sp *spanLog) error {
	env, closeEnv, err := timedSetup(rep, func() (restoreEnv, func(), error) {
		g, err := buildGraph(rewireDataset, rewireScale)
		if err != nil {
			return restoreEnv{}, nil, err
		}
		c, err := datasetCrawl(g)
		return restoreEnv{g: g, crawl: c}, func() {}, err
	})
	if err != nil {
		return err
	}
	defer closeEnv()
	if _, err := core.Restore(env.crawl, core.Options{RC: rewireRC, Rand: core.PipelineRand(warmupSeed(cfg.seed))}); err != nil {
		return fmt.Errorf("warm-up restore: %w", err)
	}
	if cfg.trace {
		tracedRestores(cfg, rep, sp, env)
		recordMemory(rep)
		return nil
	}

	var (
		lat   samples
		first []*graph.Graph
	)
	start := time.Now()
	for i := 0; !closedLoopDone(cfg, start, len(lat)); i++ {
		opts := core.Options{RC: rewireRC, Rand: core.PipelineRand(mix(cfg.seed, uint64(i)))}
		t0 := time.Now()
		res, err := core.Restore(env.crawl, opts)
		d := time.Since(t0)
		rep.op(err)
		if err != nil {
			continue
		}
		lat.addDur(d, time.Millisecond)
		if err := res.Validate(); err != nil {
			rep.check(false, "restore %d: %v", i, err)
		}
		if len(first) < l1Runs {
			first = append(first, res.Graph)
		}
	}
	rep.setPct("unit_ms_p50", lat, 0.5)
	recordMemory(rep)
	if first == nil {
		return fmt.Errorf("no restore succeeded")
	}
	rep.set("avg_l1", avgL1(first, env.g))
	return nil
}

// tracedRestores runs pairs of restores at one seed each, traced and
// untraced, until the window ends, then one traced restore with a single
// rewiring worker. Per-layer numbers come from the traced restores'
// core.Options.Trace spans; the pairs also give the tracing overhead.
// Every restore of a seed must produce the same SGRB bytes.
func tracedRestores(cfg config, rep *report, sp *spanLog, env restoreEnv) {
	var (
		traced, untraced, self, coverage, allocMB samples
		attempts, accepted, recomputed            int
		firstBin                                  []byte
	)
	phases := newPhaseTimes()
	restore := func(id int64, seed uint64, workers int, trace bool) (*core.Result, []obs.Span, time.Duration, float64) {
		var tr *obs.Trace
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		if trace {
			tr = obs.NewTrace("restore")
		}
		res, err := core.Restore(env.crawl, core.Options{RC: rewireRC, RewireWorkers: workers, Trace: tr, Rand: core.PipelineRand(seed)})
		d := time.Since(t0)
		runtime.ReadMemStats(&after)
		rep.op(err)
		if err != nil {
			return nil, nil, d, 0
		}
		if err := res.Validate(); err != nil {
			rep.check(false, "restore seed %d: %v", seed, err)
		}
		name := "core.Restore"
		if !trace {
			name = "core.Restore (untraced)"
		}
		sp.add("perfbench", name, id, t0, d, 1)
		sp.addProgram("core", id, t0, tr.Spans())
		return res, tr.Spans(), d, float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	}
	encode := func(res *core.Result) []byte {
		b, err := graph.AppendBinary(nil, res.Graph)
		rep.check(err == nil, "encoding restored graph: %v", err)
		return b
	}

	start := time.Now()
	for i := 0; !closedLoopDone(cfg, start, len(traced)); i++ {
		seed := mix(cfg.seed, uint64(i))
		res, spans, d, alloc := restore(int64(2*i), seed, 0, true)
		if res == nil {
			continue
		}
		ms := float64(d) / float64(time.Millisecond)
		traced.add(ms)
		allocMB.add(alloc)
		covered := phases.add(spans)
		self.add(ms - covered)
		coverage.add(100 * covered / ms)
		attempts += res.RewireStats.Attempts
		accepted += res.RewireStats.Accepted
		recomputed += res.RewireStats.Recomputed
		bin := encode(res)
		if firstBin == nil {
			firstBin = bin
		}
		plain, _, d2, _ := restore(int64(2*i+1), seed, 0, false)
		if plain == nil {
			continue
		}
		untraced.addDur(d2, time.Millisecond)
		rep.check(bytes.Equal(encode(plain), bin), "seed %d: untraced restore bytes differ from traced", seed)
	}
	seed := mix(cfg.seed, 0)
	res, spans, _, _ := restore(-1, seed, 1, true)
	if res != nil {
		rep.check(bytes.Equal(encode(res), firstBin), "seed %d: RewireWorkers=1 restore bytes differ", seed)
		for _, s := range spans {
			if s.Name == "rewire/propose" {
				rep.set("dkseries.propose_ms_w1", float64(s.DurUS)/1e3)
			}
		}
	}

	phases.report(rep)
	rep.setMedian("core.restore_self_ms", self)
	rep.setMedian("core.span_coverage_pct", coverage)
	rep.setMedian("core.alloc_mb_per_restore", allocMB)
	if attempts > 0 {
		rep.set("dkseries.accept_ratio", float64(accepted)/float64(attempts))
		rep.set("dkseries.recompute_ratio", float64(recomputed)/float64(attempts))
	}
	rep.setPct("restore_ms_p50_traced", traced, 0.5)
	rep.setPct("restore_ms_p50_untraced", untraced, 0.5)
	if u := untraced.median(); u > 0 {
		rep.set("obs.trace_overhead_pct", 100*(traced.median()-u)/u)
	}
}
