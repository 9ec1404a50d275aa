package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"sgr/internal/graph"
	"sgr/internal/oracle"
	"sgr/internal/sampling"
)

// crawl-remote: each crawl is a fresh oracle.Client with a journal,
// random-walking an in-process graphd over loopback.
const (
	crawlDataset  = "youtube"
	crawlScale    = 0.05
	crawlFraction = 0.1
)

// timedAccess times every NeighborsOf call of the access it wraps.
type timedAccess struct {
	inner sampling.Access
	lat   samples // µs per call
	total time.Duration
}

func (a *timedAccess) NumNodes() int { return a.inner.NumNodes() }

func (a *timedAccess) NeighborsOf(u int) []int {
	t0 := time.Now()
	nb := a.inner.NeighborsOf(u)
	d := time.Since(t0)
	a.total += d
	a.lat.addDur(d, time.Microsecond)
	return nb
}

// serverTimer is middleware timing the neighbor requests graphd serves.
type serverTimer struct {
	next http.Handler

	mu    sync.Mutex
	lat   samples // µs per request
	total time.Duration
	n     int64
}

func (s *serverTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.HasPrefix(r.URL.Path, "/v1/nodes/") {
		s.next.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	s.next.ServeHTTP(w, r)
	d := time.Since(t0)
	s.mu.Lock()
	s.lat.addDur(d, time.Microsecond)
	s.total += d
	s.n++
	s.mu.Unlock()
}

// sums returns the request count and total service time so far.
func (s *serverTimer) sums() (int64, time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n, s.total
}

func (s *serverTimer) samples() samples {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append(samples(nil), s.lat...)
}

// warmupCrawl runs one untimed crawl, journal included, before timing.
func warmupCrawl(cfg config, env crawlEnv) error {
	client, err := oracle.NewClient(oracle.ClientConfig{BaseURL: env.lb.URL, JournalPath: filepath.Join(cfg.scratch, "warmup.journal")})
	if err != nil {
		return fmt.Errorf("warm-up crawl: %w", err)
	}
	_, err = sampling.SeededRandomWalk(client, -1, crawlFraction, warmupSeed(cfg.seed))
	if cerr := client.Err(); err == nil {
		err = cerr
	}
	if cerr := client.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("warm-up crawl: %w", err)
	}
	return nil
}

type crawlEnv struct {
	g      *graph.Graph
	lb     *loopback
	server *serverTimer // nil when untraced
}

func runCrawlRemote(cfg config, rep *report, sp *spanLog) error {
	env, closeEnv, err := timedSetup(rep, func() (crawlEnv, func(), error) {
		g, err := buildGraph(crawlDataset, crawlScale)
		if err != nil {
			return crawlEnv{}, nil, err
		}
		var h http.Handler = oracle.NewServer(g, oracle.ServerConfig{}).Handler()
		var st *serverTimer
		if cfg.trace {
			st = &serverTimer{next: h}
			h = st
		}
		lb, err := serveLoopback(h)
		if err != nil {
			return crawlEnv{}, nil, err
		}
		return crawlEnv{g: g, lb: lb, server: st}, lb.Close, nil
	})
	if err != nil {
		return err
	}
	defer closeEnv()

	var (
		crawlMS, queryUS, walkSelf samples
		queries, requests, retries int64
		journalBytes               int64
		first                      []*graph.Graph
	)
	local := sampling.NewGraphAccess(env.g)
	if err := warmupCrawl(cfg, env); err != nil {
		return err
	}
	start := time.Now()
	for i := 0; !closedLoopDone(cfg, start, len(crawlMS)); i++ {
		seed := mix(mix(cfg.seed, tagCrawl), uint64(i))
		journal := filepath.Join(cfg.scratch, fmt.Sprintf("crawl-%d.journal", i))
		acc := &timedAccess{}
		var srvN0 int64
		var srvT0 time.Duration
		if env.server != nil {
			srvN0, srvT0 = env.server.sums()
		}

		t0 := time.Now()
		client, err := oracle.NewClient(oracle.ClientConfig{BaseURL: env.lb.URL, JournalPath: journal})
		var c *sampling.Crawl
		if err == nil {
			acc.inner = client
			c, err = sampling.SeededRandomWalk(acc, -1, crawlFraction, seed)
			if cerr := client.Err(); cerr != nil {
				err = cerr
			}
			if err == nil {
				err = client.RecordWalk(c.Walk)
			}
			if cerr := client.Close(); err == nil {
				err = cerr
			}
		}
		d := time.Since(t0)
		rep.op(err)
		if err != nil {
			os.Remove(journal)
			continue
		}

		crawlMS.addDur(d, time.Millisecond)
		queryUS = append(queryUS, acc.lat...)
		walkSelf.addDur(d-acc.total, time.Millisecond)
		st := client.Stats()
		queries += int64(len(acc.lat))
		requests += st.Requests
		retries += st.Retries
		if fi, err := os.Stat(journal); err == nil {
			journalBytes += fi.Size()
		}
		os.Remove(journal)
		sp.add("perfbench", "crawl", int64(i), t0, d, 1)
		sp.add("oracle", "oracle.Client.NeighborsOf", int64(i), t0, acc.total, int64(len(acc.lat)))
		if env.server != nil {
			n1, t1 := env.server.sums()
			sp.add("oracle", "graphd /v1/nodes/{id}/neighbors", int64(i), t0, t1-srvT0, n1-srvN0)
		}

		// The remote crawl must equal the in-memory walk at its seed.
		want, err := sampling.SeededRandomWalk(local, -1, crawlFraction, seed)
		if err != nil {
			rep.check(false, "crawl %d: in-memory walk: %v", i, err)
			continue
		}
		got, err1 := crawlBytes(c)
		exp, err2 := crawlBytes(want)
		rep.check(err1 == nil && err2 == nil && bytes.Equal(got, exp), "crawl %d: remote crawl differs from the in-memory walk", i)
		if len(first) < l1Runs {
			first = append(first, sampling.BuildSubgraph(c).Graph)
		}
	}

	if cfg.trace {
		server := env.server.samples()
		rep.setPct("oracle.server_us_p50", server, 0.5)
		rep.setPct("oracle.server_us_p99", server, 0.99)
		rep.setPct("oracle.client_us_p50", queryUS, 0.5)
		rep.set("oracle.client_overhead_us_p50", rep.values["oracle.client_us_p50"]-rep.values["oracle.server_us_p50"])
		rep.setPct("driver.query_us_p99", queryUS, 0.99)
		rep.setMedian("sampling.walk_self_ms", walkSelf)
		if queries > 0 {
			rep.set("oracle.requests_per_query", float64(requests)/float64(queries))
			rep.set("oracle.journal_bytes_per_query", float64(journalBytes)/float64(queries))
		}
		rep.set("oracle.retries", float64(retries))
		recordMemory(rep)
		return nil
	}
	rep.setPct("unit_ms_p50", crawlMS, 0.5)
	rep.setPct("query_us_p50", queryUS, 0.5)
	rep.setPct("query_us_p99", queryUS, 0.99)
	recordMemory(rep)
	if first == nil {
		return fmt.Errorf("no crawl succeeded")
	}
	rep.set("avg_l1", avgL1(first, env.g))
	return nil
}
