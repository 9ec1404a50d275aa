package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"sgr/internal/gen"
	"sgr/internal/graph"
	"sgr/internal/metrics"
	"sgr/internal/obs"
	"sgr/internal/props"
	"sgr/internal/sampling"
)

// A run builds its inputs at least minSetups times, and more while the
// builds together take under setupBudget; setup_s is the median build time.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 500 * time.Millisecond
)

// runCap bounds a closed loop that has not yet collected enough samples
// for its p50, so a run always ends well within its time limit.
const runCap = 3

// Each workload's graph, and the crawl of it that its restores start
// from, are a fixed dataset: they come from datasetSeed, not from the
// workload seed. The seed drives the random streams of the operations
// run on them. A restore's cost follows the node count the crawl's
// estimates imply, which differs by up to 2x between 10% crawls of one
// graph, so a crawl drawn per seed would bury every change in that spread.
const datasetSeed = 1

// Tags separate the random streams derived from one seed.
const (
	tagGraph uint64 = iota + 1
	tagCrawl
	tagSchedule
	tagWarmup
)

// warmupSeed seeds the untimed operation a run performs before timing,
// which warms the heap, the caches and the daemons.
func warmupSeed(seed uint64) uint64 { return mix(mix(seed, tagWarmup), 0) }

// mix derives an independent 64-bit seed from seed and tag (SplitMix64).
func mix(seed, tag uint64) uint64 {
	z := seed + tag*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// buildGraph generates a dataset stand-in.
func buildGraph(dataset string, scale float64) (*graph.Graph, error) {
	d, err := gen.ByName(dataset)
	if err != nil {
		return nil, err
	}
	s := mix(datasetSeed, tagGraph)
	return d.Build(scale, rand.New(rand.NewPCG(s, s^0x5851f42d4c957f2d))), nil
}

// datasetCrawl is the fixed 10% random-walk crawl of g that restores
// start from.
func datasetCrawl(g *graph.Graph) (*sampling.Crawl, error) {
	return sampling.SeededRandomWalk(sampling.NewGraphAccess(g), -1, 0.1, mix(datasetSeed, tagCrawl))
}

// l1Runs is how many outputs avg_l1 averages: one output's L1 moves by
// a few percent with the random streams alone.
const l1Runs = 3

// l1Props trades path-property accuracy for time: the benchmark's graphs
// of 1,000 nodes and more take 100 evenly spaced BFS sources, which is
// deterministic and keeps the untimed check to about a second a run.
var l1Props = props.Options{ExactThreshold: 1000, Pivots: 100, Workers: 1}

// timedSetup builds a workload's inputs several times, keeping the last
// build and closing the others, and records the median build time.
func timedSetup[T any](rep *report, build func() (T, func(), error)) (T, func(), error) {
	var (
		times   samples
		env     T
		closeFn func()
	)
	var spent time.Duration
	for i := 0; i < minSetups || (i < maxSetups && spent < setupBudget); i++ {
		if closeFn != nil {
			closeFn()
		}
		t0 := time.Now()
		e, c, err := build()
		if err != nil {
			var zero T
			return zero, nil, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0)
		spent += d
		times.add(d.Seconds())
		env, closeFn = e, c
	}
	rep.setMedian("setup_s", times)
	return env, closeFn, nil
}

// closedLoopDone reports whether a closed loop started at start may stop:
// the window is over and the p50 is reportable, or the run hit its cap.
func closedLoopDone(cfg config, start time.Time, n int) bool {
	el := time.Since(start)
	return (el >= cfg.seconds && n >= minCount(0.5)) || el >= runCap*cfg.seconds
}

// recordMemory sets peak_rss_mb and live_heap_mb. Call it while the
// workload's state is still reachable.
func recordMemory(rep *report) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.set("live_heap_mb", float64(ms.HeapAlloc)/(1<<20))
	rep.set("peak_rss_mb", peakRSSMB())
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// avgL1 is the paper's mean normalized L1 distance over the 12 structural
// properties, averaged over the graphs in got, against orig.
func avgL1(got []*graph.Graph, orig *graph.Graph) float64 {
	want := props.Compute(orig, l1Props)
	var sum float64
	for _, g := range got {
		sum += metrics.Mean(metrics.PerProperty(props.Compute(g, l1Props), want))
	}
	return sum / float64(len(got))
}

// crawlBytes is a crawl's canonical JSON form.
func crawlBytes(c *sampling.Crawl) ([]byte, error) {
	var b bytes.Buffer
	err := c.WriteJSON(&b)
	return b.Bytes(), err
}

// pipelinePhases are the top-level spans core.Restore records, paired
// with the per-layer metric each one feeds. The rewire round timers
// nest inside phase4_rewire.
var pipelinePhases = []struct{ span, metric string }{
	{"estimate", "estimate.ms"},
	{"subgraph", "sampling.subgraph_ms"},
	{"phase1_degree_vector", "core.phase1_ms"},
	{"phase2_jdm", "core.phase2_jdm_ms"},
	{"phase3_construct", "dkseries.build_ms"},
	{"phase4_rewire", "dkseries.rewire_ms"},
}

var roundTimers = []struct{ span, metric string }{
	{"rewire/propose", "dkseries.propose_ms"},
	{"rewire/commit", "dkseries.commit_ms"},
}

// phaseTimes gathers the pipeline's own spans over many restores.
type phaseTimes struct {
	by     map[string]*samples // span name -> ms per restore
	rounds samples             // rewire rounds per restore
}

func newPhaseTimes() *phaseTimes { return &phaseTimes{by: make(map[string]*samples)} }

// add folds one restore's spans in and returns the time they cover: the
// sum of the top-level phase spans, in ms.
func (p *phaseTimes) add(spans []obs.Span) float64 {
	var covered float64
	for _, s := range spans {
		ms := float64(s.DurUS) / 1e3
		if p.by[s.Name] == nil {
			p.by[s.Name] = new(samples)
		}
		p.by[s.Name].add(ms)
		if s.Name == "rewire/propose" {
			p.rounds.add(float64(s.Count))
		}
		for _, ph := range pipelinePhases {
			if ph.span == s.Name {
				covered += ms
			}
		}
	}
	return covered
}

// report sets the per-phase medians.
func (p *phaseTimes) report(rep *report) {
	for _, set := range [][]struct{ span, metric string }{pipelinePhases, roundTimers} {
		for _, ph := range set {
			if s := p.by[ph.span]; s != nil {
				rep.setMedian(ph.metric, *s)
			}
		}
	}
	rep.setMedian("dkseries.rounds", p.rounds)
}

// loopback serves a handler on 127.0.0.1 in this process.
type loopback struct {
	URL  string
	srv  *http.Server
	done chan struct{}
}

func serveLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{URL: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(lb.done)
		if err := lb.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: loopback server: %v\n", err)
		}
	}()
	return lb, nil
}

// Close stops the server and waits for its serving goroutine to end.
func (lb *loopback) Close() {
	lb.srv.Close()
	<-lb.done
}
