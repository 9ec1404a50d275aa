package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sgr/internal/core"
	"sgr/internal/graph"
	"sgr/internal/obs"
	"sgr/internal/oracle"
	"sgr/internal/restored"
	"sgr/internal/sampling"
)

// serve-mixed: an in-process restored (disk cache and WAL on) and graphd
// behind one loopback listener, driven open-loop from a seeded schedule.
const (
	serveDataset = "anybeat"
	serveScale   = 0.1
	serveRC      = 25
	pollInterval = 2 * time.Millisecond
	opTimeout    = 60 * time.Second
)

// serveRates keep the daemons about half busy on two cores, so that a
// job's latency is mostly its own restore rather than queueing behind
// others.
var serveRates = rates{opRead: 100, opJob: 4, opWarm: 4, opDedup: 2}

// Tags for the per-operation seeds of serve-mixed.
const (
	tagJobSeed uint64 = 16 + iota
	tagWarmSeed
)

func jobSpec(seed uint64, j int, crawl json.RawMessage) restored.JobSpec {
	return restored.JobSpec{Seed: mix(mix(seed, tagJobSeed), uint64(j)), RC: serveRC, Crawl: crawl}
}

// warmSpec is a job whose result set-up already wrote to the disk cache.
// Skipping rewiring keeps that fill cheap; reading the result back costs
// the same as for any graph of its size.
func warmSpec(seed uint64, i int, crawl json.RawMessage) restored.JobSpec {
	return restored.JobSpec{Seed: mix(mix(seed, tagWarmSeed), uint64(i)), RC: serveRC, SkipRewiring: true, Crawl: crawl}
}

// serveEnv is one set-up of the serve-mixed daemons and inputs. Every
// job restores the dataset crawl; each is new through its own seed.
type serveEnv struct {
	g          *graph.Graph
	events     []event
	hash       string
	crawl      *sampling.Crawl
	jobBodies  [][]byte
	warmBody   [][]byte
	warmupBody []byte // the untimed job run before the schedule
	svc        *restored.Service
	lb         *loopback
	drv        *driver
	restoredT  *routeTimer  // nil when untraced
	graphdT    *serverTimer // nil when untraced
}

func setupServe(cfg config, dir string) (*serveEnv, error) {
	g, err := buildGraph(serveDataset, serveScale)
	if err != nil {
		return nil, err
	}
	env := &serveEnv{g: g}
	env.events, env.hash = makeSchedule(cfg.seed, cfg.seconds, g.N(), serveRates)
	n := serveRates.counts(cfg.seconds)
	if env.crawl, err = datasetCrawl(g); err != nil {
		return nil, err
	}
	raw, err := crawlBytes(env.crawl)
	if err != nil {
		return nil, err
	}
	env.warmupBody, err = json.Marshal(restored.JobSpec{Seed: warmupSeed(cfg.seed), RC: serveRC, Crawl: raw})
	if err != nil {
		return nil, err
	}
	for j := 0; j < n[opJob]; j++ {
		body, err := json.Marshal(jobSpec(cfg.seed, j, raw))
		if err != nil {
			return nil, err
		}
		env.jobBodies = append(env.jobBodies, body)
	}

	// An earlier daemon on the same directory fills the disk cache.
	fill, err := restored.New(restored.Config{CacheDir: dir})
	if err != nil {
		return nil, err
	}
	var jobs []*restored.Job
	for i := 0; i < n[opWarm]; i++ {
		spec := warmSpec(cfg.seed, i, raw)
		body, err := json.Marshal(spec)
		if err != nil {
			fill.Close()
			return nil, err
		}
		env.warmBody = append(env.warmBody, body)
		for {
			j, _, err := fill.Submit(&spec)
			if err == restored.ErrQueueFull {
				<-jobs[len(jobs)-1].Done()
				continue
			}
			if err != nil {
				fill.Close()
				return nil, fmt.Errorf("warm fill: %w", err)
			}
			jobs = append(jobs, j)
			break
		}
	}
	for _, j := range jobs {
		<-j.Done()
		if st := j.Status(); st.State != restored.StateDone {
			fill.Close()
			return nil, fmt.Errorf("warm fill job %s: %s %s", st.ID, st.State, st.Error)
		}
	}
	fill.Close()

	env.svc, err = restored.New(restored.Config{CacheDir: dir})
	if err != nil {
		return nil, err
	}
	var rh http.Handler = restored.NewServer(env.svc).Handler()
	var gh http.Handler = oracle.NewServer(g, oracle.ServerConfig{}).Handler()
	if cfg.trace {
		env.restoredT = &routeTimer{next: rh}
		env.graphdT = &serverTimer{next: gh}
		rh, gh = env.restoredT, env.graphdT
	}
	mux := http.NewServeMux()
	mux.Handle("/restored/", http.StripPrefix("/restored", rh))
	mux.Handle("/graphd/", http.StripPrefix("/graphd", gh))
	env.lb, err = serveLoopback(mux)
	if err != nil {
		env.svc.Close()
		return nil, err
	}
	env.drv = newDriver(env.lb.URL, runtime.NumCPU())
	return env, nil
}

func (env *serveEnv) close() {
	env.drv.close()
	env.lb.Close()
	env.svc.Close()
}

// opResult is one operation's outcome, written only by its own goroutine.
type opResult struct {
	err      error
	lat      time.Duration // due to last byte
	lag      time.Duration // how late the generator started it
	due      time.Time
	posted   time.Time
	postOK   bool
	id       string
	status   restored.JobStatus // final status (job classes)
	download time.Duration
	body     []byte // kept for the ops whose bytes are checked
}

func runServeMixed(cfg config, rep *report, sp *spanLog) error {
	setups := 0
	env, closeEnv, err := timedSetup(rep, func() (*serveEnv, func(), error) {
		dir := filepath.Join(cfg.scratch, fmt.Sprintf("cache-%d", setups))
		setups++
		env, err := setupServe(cfg, dir)
		if err != nil {
			return nil, nil, err
		}
		return env, func() { env.close(); os.RemoveAll(dir) }, nil
	})
	if err != nil {
		return err
	}
	defer closeEnv()
	fmt.Printf("# schedule %s (%d ops)\n", env.hash, len(env.events))
	if err := env.warmUp(); err != nil {
		return err
	}

	before, err := env.scrape()
	if err != nil {
		return err
	}
	results := env.execute()
	after, err := env.scrape()
	if err != nil {
		return err
	}

	var (
		lat     [numKinds]samples
		lag     samples
		postsOK int
		okN     [numKinds]int
		first   []*graph.Graph
	)
	for i, ev := range env.events {
		r := &results[i]
		rep.op(r.err)
		lag.addDur(r.lag, time.Millisecond)
		if r.postOK {
			postsOK++
		}
		if r.err != nil {
			continue
		}
		okN[ev.Kind]++
		lat[ev.Kind].addDur(r.lat, time.Millisecond)
		if ev.Kind == opWarm {
			rep.check(r.status.Cached, "warm op %d: result not served from the cache", ev.Seq)
		}
		if ev.Kind == opJob && ev.Seq < l1Runs {
			g, err := graph.DecodeBinary(r.body)
			rep.check(err == nil, "job %d: decoding the download: %v", ev.Seq, err)
			if err == nil {
				first = append(first, g)
			}
		}
	}
	env.checkOutputs(cfg, rep, env.events, results)
	env.checkCounters(rep, before, after, postsOK, okN)

	if cfg.trace {
		env.traceLayers(rep, sp, before, after, results, lat, lag)
		recordMemory(rep)
		return nil
	}
	rep.setPct("unit_ms_p50", lat[opJob], 0.5)
	rep.setPct("job_ms_p90", lat[opJob], 0.9)
	rep.setPct("cached_ms_p50", lat[opWarm], 0.5)
	rep.setPct("cached_ms_p90", lat[opWarm], 0.9)
	rep.setPct("dedup_ms_p50", lat[opDedup], 0.5)
	rep.setPct("read_ms_p50", lat[opRead], 0.5)
	rep.setPct("read_ms_p99", lat[opRead], 0.99)
	rep.setPct("lag_ms_p99", lag, 0.99)
	rep.set("max_conns", float64(env.drv.maxLive.Load()))
	recordMemory(rep)
	if first == nil {
		return fmt.Errorf("no job succeeded")
	}
	rep.set("avg_l1", avgL1(first, env.g))
	return nil
}

// warmUpReads is how many graphd reads warm the transport before timing.
const warmUpReads = 50

// warmUp runs one untimed job and a burst of reads through the driver.
func (env *serveEnv) warmUp() error {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	var r opResult
	env.job(ctx, env.warmupBody, false, &r)
	if r.err != nil {
		return fmt.Errorf("warm-up job: %w", r.err)
	}
	for i := 0; i < warmUpReads; i++ {
		if err := env.read(ctx, i%env.g.N()); err != nil {
			return fmt.Errorf("warm-up read: %w", err)
		}
	}
	return nil
}

// execute fires every scheduled operation at its due time, each in its
// own goroutine, and waits for all of them.
func (env *serveEnv) execute() []opResult {
	results := make([]opResult, len(env.events))
	var wg sync.WaitGroup
	start := time.Now().Add(20 * time.Millisecond)
	for i, ev := range env.events {
		due := start.Add(ev.At)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		r := &results[i]
		r.due = due
		r.lag = time.Since(due)
		wg.Add(1)
		go func(ev event) {
			defer wg.Done()
			env.runOp(ev, due, r)
			r.lat = time.Since(due)
		}(ev)
	}
	wg.Wait()
	return results
}

// keepBytes reports whether an operation's download is checked against
// an offline restore.
func keepBytes(ev event) bool {
	return (ev.Kind == opJob && ev.Seq < l1Runs) || (ev.Kind != opRead && ev.Seq == 0)
}

func (env *serveEnv) runOp(ev event, due time.Time, r *opResult) {
	ctx, cancel := context.WithDeadline(context.Background(), due.Add(opTimeout))
	defer cancel()
	switch ev.Kind {
	case opRead:
		r.err = env.read(ctx, ev.Arg)
	case opJob:
		env.job(ctx, env.jobBodies[ev.Seq], keepBytes(ev), r)
	case opWarm:
		env.job(ctx, env.warmBody[ev.Seq], keepBytes(ev), r)
	case opDedup:
		env.job(ctx, env.jobBodies[ev.Arg], keepBytes(ev), r)
	}
}

// read fetches one neighbor page and checks it against the graph.
func (env *serveEnv) read(ctx context.Context, id int) error {
	body, code, err := env.drv.do(ctx, http.MethodGet, fmt.Sprintf("/graphd/v1/nodes/%d/neighbors", id), nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("read %d: HTTP %d", id, code)
	}
	var page oracle.NeighborsPage
	if err := json.Unmarshal(body, &page); err != nil {
		return fmt.Errorf("read %d: %w", id, err)
	}
	want := env.g.Neighbors(id)
	if page.ID != id || page.Degree != len(want) || len(page.Neighbors) > len(want) ||
		!slices.Equal(page.Neighbors, want[:len(page.Neighbors)]) ||
		(page.NextCursor == 0 && len(page.Neighbors) != len(want)) {
		return fmt.Errorf("read %d: neighbor page differs from the graph", id)
	}
	return nil
}

// job submits a spec, polls until the job is done and downloads its graph.
func (env *serveEnv) job(ctx context.Context, spec []byte, keep bool, r *opResult) {
	r.posted = time.Now()
	body, code, err := env.drv.do(ctx, http.MethodPost, "/restored/v1/jobs", spec)
	if err != nil {
		r.err = err
		return
	}
	if code != http.StatusOK && code != http.StatusAccepted {
		r.err = fmt.Errorf("submit: HTTP %d: %s", code, bytes.TrimSpace(body))
		return
	}
	r.postOK = true
	if err := json.Unmarshal(body, &r.status); err != nil {
		r.err = fmt.Errorf("submit: %w", err)
		return
	}
	r.id = r.status.ID
	for r.status.State != restored.StateDone {
		switch r.status.State {
		case restored.StateFailed, restored.StateCancelled:
			r.err = fmt.Errorf("job %s: %s: %s", r.id, r.status.State, r.status.Error)
			return
		}
		select {
		case <-ctx.Done():
			r.err = fmt.Errorf("job %s: %w", r.id, ctx.Err())
			return
		case <-time.After(pollInterval):
		}
		body, code, err := env.drv.do(ctx, http.MethodGet, "/restored/v1/jobs/"+r.id, nil)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("poll: HTTP %d", code)
		}
		if err == nil {
			err = json.Unmarshal(body, &r.status)
		}
		if err != nil {
			r.err = fmt.Errorf("job %s: %w", r.id, err)
			return
		}
	}
	t0 := time.Now()
	bin, code, err := env.drv.do(ctx, http.MethodGet, "/restored/v1/jobs/"+r.id+"/graph", nil)
	r.download = time.Since(t0)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("download: HTTP %d", code)
	}
	if err == nil && r.status.Result != nil && len(bin) != r.status.Result.GraphBytes {
		err = fmt.Errorf("download: %d bytes, status says %d", len(bin), r.status.Result.GraphBytes)
	}
	if err != nil {
		r.err = fmt.Errorf("job %s: %w", r.id, err)
		return
	}
	if keep {
		r.body = bin
	}
}

// checkOutputs compares the kept downloads with offline restores of the
// same crawl and seed.
func (env *serveEnv) checkOutputs(cfg config, rep *report, events []event, results []opResult) {
	for i, ev := range events {
		r := &results[i]
		if r.err != nil || !keepBytes(ev) {
			continue
		}
		var spec restored.JobSpec
		switch ev.Kind {
		case opJob:
			spec = jobSpec(cfg.seed, ev.Seq, nil)
		case opDedup:
			spec = jobSpec(cfg.seed, ev.Arg, nil)
		case opWarm:
			spec = warmSpec(cfg.seed, ev.Seq, nil)
		}
		res, err := core.Restore(env.crawl, core.Options{RC: spec.RC, SkipRewiring: spec.SkipRewiring, Rand: core.PipelineRand(spec.Seed)})
		var want []byte
		if err == nil {
			want, err = graph.AppendBinary(nil, res.Graph)
		}
		rep.check(err == nil && bytes.Equal(r.body, want),
			"%s op %d: download differs from the offline restore (%v)", kindNames[ev.Kind], ev.Seq, err)
	}
}

// scrape reads both daemons' /v1/metrics.
func (env *serveEnv) scrape() (map[string]*obs.Scrape, error) {
	out := make(map[string]*obs.Scrape)
	for _, d := range []string{"restored", "graphd"} {
		body, code, err := env.drv.do(context.Background(), http.MethodGet, "/"+d+"/v1/metrics", nil)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("HTTP %d", code)
		}
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", d, err)
		}
		s, err := obs.ParseExposition(bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("parsing %s metrics: %w", d, err)
		}
		out[d] = s
	}
	return out, nil
}

func delta(before, after map[string]*obs.Scrape, daemon, name string) float64 {
	a, _ := after[daemon].Value(name)
	b, _ := before[daemon].Value(name)
	return a - b
}

// checkCounters requires the daemons' counters to account exactly for
// what the driver saw succeed.
func (env *serveEnv) checkCounters(rep *report, before, after map[string]*obs.Scrape, postsOK int, okN [numKinds]int) {
	subs := delta(before, after, "restored", "restored_jobs_submitted") + delta(before, after, "restored", "restored_jobs_deduped")
	rep.check(int(subs) == postsOK, "restored submitted+deduped %v != %d successful submissions", subs, postsOK)
	hits := delta(before, after, "restored", "restored_cache_hits")
	rep.check(int(hits) == okN[opWarm], "restored_cache_hits %v != %d warm ops", hits, okN[opWarm])
	served := delta(before, after, "graphd", "graphd_queries_served")
	rep.check(int(served) == okN[opRead], "graphd_queries_served %v != %d reads", served, okN[opRead])
}

// traceLayers derives serve-mixed's per-layer metrics from the route
// middleware, the final job statuses, the jobs' own traces and the
// counter deltas.
func (env *serveEnv) traceLayers(rep *report, sp *spanLog, before, after map[string]*obs.Scrape,
	results []opResult, lat [numKinds]samples, lag samples) {
	var queue, exec, pollWait, cacheRead samples
	var accepted, attempts int
	phases := newPhaseTimes()
	for i, ev := range env.events {
		r := &results[i]
		sp.add("perfbench", kindNames[ev.Kind], int64(i), r.due, r.lat, 1)
		if r.err != nil || (ev.Kind != opJob && ev.Kind != opWarm) {
			continue
		}
		queue.add(float64(r.status.QueueUS) / 1e3)
		if ev.Kind == opJob {
			exec.add(float64(r.status.PhaseUS) / 1e3)
			pollWait.add(float64(r.lat-r.download)/float64(time.Millisecond) -
				float64(r.status.QueueUS+r.status.PhaseUS)/1e3)
			if res := r.status.Result; res != nil {
				accepted += res.RewireAccepted
				attempts += res.RewireAttempts
			}
		}
		body, code, err := env.drv.do(context.Background(), http.MethodGet, "/restored/v1/jobs/"+r.id+"/trace", nil)
		var tr obs.TraceJSON
		if err == nil && code == http.StatusOK {
			err = json.Unmarshal(body, &tr)
		}
		if err != nil || code != http.StatusOK {
			rep.note(false, "trace of job %s: HTTP %d %v", r.id, code, err)
			continue
		}
		sp.addProgram("restored", int64(i), r.posted, tr.Spans)
		if ev.Kind == opJob {
			phases.add(tr.Spans)
		}
		for _, s := range tr.Spans {
			if ev.Kind == opWarm && s.Name == "cache_read" {
				cacheRead.add(float64(s.DurUS) / 1e3)
			}
		}
	}
	phases.report(rep)
	if attempts > 0 {
		rep.set("dkseries.accept_ratio", float64(accepted)/float64(attempts))
	}
	rep.setPct("restored.queue_ms_p50", queue, 0.5)
	rep.setPct("restored.queue_ms_p90", queue, 0.9)
	rep.setPct("restored.exec_ms_p50", exec, 0.5)
	rep.setPct("restored.poll_wait_ms_p50", pollWait, 0.5)
	rep.setPct("restored.cache_read_ms_p50", cacheRead, 0.5)
	rep.setPct("restored.dedup_ms_p50", lat[opDedup], 0.5)
	route := env.restoredT.samples()
	rep.setPct("restored.submit_us_p50", route[routeSubmit], 0.5)
	rep.setPct("restored.submit_us_p90", route[routeSubmit], 0.9)
	rep.setPct("restored.poll_us_p50", route[routePoll], 0.5)
	rep.setPct("restored.download_us_p50", route[routeDownload], 0.5)
	server := env.graphdT.samples()
	rep.setPct("oracle.server_us_p50", server, 0.5)
	rep.setPct("oracle.server_us_p99", server, 0.99)

	submitted := delta(before, after, "restored", "restored_jobs_submitted")
	rep.set("restored.pipeline_runs", delta(before, after, "restored", "restored_pipeline_runs"))
	rep.set("restored.cache_hits", delta(before, after, "restored", "restored_cache_hits"))
	rep.set("restored.dedupes", delta(before, after, "restored", "restored_jobs_deduped"))
	if submitted > 0 {
		rep.set("restored.wal_records_per_job", delta(before, after, "restored", "restored_wal_records")/submitted)
	}
	if a, ok := after["restored"].Histogram("restored_encode_usec"); ok {
		b, _ := before["restored"].Histogram("restored_encode_usec")
		sum := a.Sum
		if b != nil {
			sum -= b.Sum
		}
		rep.set("restored.encode_ms_total", sum/1e3)
	}
	known, _ := after["restored"].Value("restored_jobs_known")
	entries, _ := after["restored"].Value("restored_cache_entries")
	rep.set("restored.jobs_known", known)
	rep.set("restored.cache_entries", entries)
	rep.setPct("driver.lag_ms_p99", lag, 0.99)
	rep.setPct("driver.job_ms_p90", lat[opJob], 0.9)
	rep.setPct("driver.cached_ms_p50", lat[opWarm], 0.5)
	rep.setPct("driver.cached_ms_p90", lat[opWarm], 0.9)
	rep.setPct("driver.read_ms_p50", lat[opRead], 0.5)
	rep.setPct("driver.read_ms_p99", lat[opRead], 0.99)
}

// Routes of restored the middleware tells apart.
const (
	routeSubmit = iota
	routePoll
	routeDownload
	numRoutes
)

// routeTimer is middleware timing restored's submit, poll and download
// endpoints separately.
type routeTimer struct {
	next http.Handler
	mu   sync.Mutex
	lat  [numRoutes]samples // µs
}

func (t *routeTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route := -1
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
		route = routeSubmit
	case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/graph"):
		route = routeDownload
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") && strings.Count(r.URL.Path, "/") == 3:
		route = routePoll
	}
	t0 := time.Now()
	t.next.ServeHTTP(w, r)
	if route >= 0 {
		d := time.Since(t0)
		t.mu.Lock()
		t.lat[route].addDur(d, time.Microsecond)
		t.mu.Unlock()
	}
}

func (t *routeTimer) samples() [numRoutes]samples {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out [numRoutes]samples
	for i := range out {
		out[i] = append(samples(nil), t.lat[i]...)
	}
	return out
}

// driver is the open-loop HTTP client. Its transport holds at most conns
// connections; a request that finds them all busy waits for one, and the
// wait counts toward the operation's latency from its due time.
type driver struct {
	base    string
	tr      *http.Transport
	hc      *http.Client
	live    atomic.Int64
	maxLive atomic.Int64
}

func newDriver(base string, conns int) *driver {
	d := &driver{base: base}
	var dialer net.Dialer
	d.tr = &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		MaxIdleConns:        conns,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := dialer.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			n := d.live.Add(1)
			for {
				m := d.maxLive.Load()
				if n <= m || d.maxLive.CompareAndSwap(m, n) {
					break
				}
			}
			return &countedConn{Conn: c, live: &d.live}, nil
		},
	}
	d.hc = &http.Client{Transport: d.tr}
	return d
}

func (d *driver) close() { d.tr.CloseIdleConnections() }

// do sends one request and reads the whole response body.
func (d *driver) do(ctx context.Context, method, path string, body []byte) ([]byte, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, rd)
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return out, resp.StatusCode, err
}

// countedConn decrements the live-connection count once when closed.
type countedConn struct {
	net.Conn
	live *atomic.Int64
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.live.Add(-1) })
	return c.Conn.Close()
}
