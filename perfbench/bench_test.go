package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestScheduleIsSeeded(t *testing.T) {
	window := 20 * time.Second
	a, hashA := makeSchedule(7, window, 1000, serveRates)
	b, hashB := makeSchedule(7, window, 1000, serveRates)
	_, hashC := makeSchedule(8, window, 1000, serveRates)
	if hashA != hashB || len(a) != len(b) {
		t.Fatalf("same seed, different schedules: %s vs %s", hashA, hashB)
	}
	if hashA == hashC {
		t.Fatalf("seeds 7 and 8 give the same schedule %s", hashA)
	}

	want := serveRates.counts(window)
	var got [numKinds]int
	var jobAt []time.Duration
	for i, ev := range a {
		got[ev.Kind]++
		if i > 0 && ev.At < a[i-1].At {
			t.Fatalf("event %d due before event %d", i, i-1)
		}
		if ev.At < 0 || ev.At > window {
			t.Fatalf("event %d due at %v, outside the window", i, ev.At)
		}
		if ev.Kind == opJob {
			jobAt = append(jobAt, ev.At)
		}
	}
	if got != want {
		t.Fatalf("class counts %v, want %v", got, want)
	}
	for _, ev := range a {
		if ev.Kind == opDedup && jobAt[ev.Arg] > ev.At {
			t.Fatalf("dedup at %v repeats job %d, due later at %v", ev.At, ev.Arg, jobAt[ev.Arg])
		}
	}
}

func TestPercentile(t *testing.T) {
	var s samples
	for v := 100; v >= 1; v-- { // unsorted on purpose
		s.add(float64(v))
	}
	for _, c := range []struct {
		p    float64
		want float64
		ok   bool
	}{
		{0.5, 50, true},
		{0.9, 90, true},
		{0.91, 91, false}, // only 9 samples above
		{0.99, 99, false},
		{1, 100, false},
	} {
		got, ok := s.percentile(c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("p%g of 1..100 = %v, %v; want %v, %v", c.p*100, got, ok, c.want, c.ok)
		}
	}
	if v, ok := (samples{3, 1, 2}).percentile(0.5); v != 2 || ok {
		t.Errorf("p50 of {3,1,2} = %v, %v; want 2, false", v, ok)
	}
	if _, ok := (samples{}).percentile(0.5); ok {
		t.Error("p50 of no samples reported as reportable")
	}
	for p, n := range map[float64]int{0.5: 20, 0.9: 100, 0.99: 1000} {
		if got := minCount(p); got != n {
			t.Errorf("minCount(%g) = %d, want %d", p, got, n)
		}
	}
	if got := (samples{5, 1, 4, 2, 3}).median(); got != 3 {
		t.Errorf("median of 1..5 = %v, want 3", got)
	}
}

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(endToEnd) < 1 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", len(endToEnd))
	}
	if len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", len(perLayer))
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	var setupBound, maxBound float64
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q does not match %s", d.Name, d.Unit, unitRE)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Bound > maxBound {
			maxBound = d.Bound
		}
		if d.Name == "setup_s" {
			setupBound = d.Bound
			if d.Unit != "s" || d.Better != "lower" {
				t.Errorf("setup_s declared as %+v", d)
			}
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	if !equalDefs(b.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from the declarations:\n%+v\n%+v", b.EndToEnd, endToEnd)
	}
	if !equalDefs(b.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the declarations")
	}

	var names []string
	for _, w := range b.Workloads {
		check(w.Name)
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	var runners []string
	for name := range workloads {
		runners = append(runners, name)
	}
	sort.Strings(names)
	sort.Strings(runners)
	if len(names) != len(runners) {
		t.Fatalf("BENCHMARK.json workloads %v, runners %v", names, runners)
	}
	for i := range names {
		if names[i] != runners[i] {
			t.Fatalf("BENCHMARK.json workloads %v, runners %v", names, runners)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
}

func equalDefs(a, b []metricDef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestTargets(t *testing.T) {
	raw, err := os.ReadFile("targets.json")
	if err != nil {
		t.Fatal(err)
	}
	var tg struct {
		EndToEnd map[string]map[string]string `json:"end_to_end"`
		PerLayer map[string]struct {
			Moves      string   `json:"moves"`
			StronglyOn []string `json:"strongly_on"`
			WeaklyOn   []string `json:"weakly_on"`
		} `json:"per_layer"`
		NoChange []struct {
			Change, Metric, Workload string
		} `json:"no_change"`
	}
	if err := json.Unmarshal(raw, &tg); err != nil {
		t.Fatal(err)
	}
	isE2E := map[string]bool{}
	for _, d := range endToEnd {
		isE2E[d.Name] = true
		for w := range workloads {
			if tg.EndToEnd[d.Name][w] == "" {
				t.Errorf("targets.json: no meaning of %s on %s", d.Name, w)
			}
		}
	}
	for _, d := range perLayer {
		p, ok := tg.PerLayer[d.Name]
		if !ok {
			t.Errorf("targets.json: no target for %s", d.Name)
			continue
		}
		if !isE2E[p.Moves] {
			t.Errorf("targets.json: %s moves unknown metric %q", d.Name, p.Moves)
		}
		for _, w := range append(append([]string(nil), p.StronglyOn...), p.WeaklyOn...) {
			if _, ok := workloads[w]; !ok {
				t.Errorf("targets.json: %s names unknown workload %q", d.Name, w)
			}
		}
	}
	if len(tg.PerLayer) != len(perLayer) {
		t.Errorf("targets.json has %d per-layer entries, %d declared", len(tg.PerLayer), len(perLayer))
	}
	for _, nc := range tg.NoChange {
		if _, ok := workloads[nc.Workload]; !ok || !isE2E[nc.Metric] || nc.Change == "" {
			t.Errorf("targets.json: bad no-change pair %+v", nc)
		}
	}
}

// TestDriverConnectionCap fires many concurrent requests through the
// open-loop driver and checks, on the server side, that no more than
// nproc connections were ever open at once.
func TestDriverConnectionCap(t *testing.T) {
	var (
		mu        sync.Mutex
		open, max int
	)
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Millisecond)
		w.Write([]byte("ok"))
	}))
	srv.Config.ConnState = func(c net.Conn, s http.ConnState) {
		mu.Lock()
		defer mu.Unlock()
		switch s {
		case http.StateNew:
			open++
			if open > max {
				max = open
			}
		case http.StateClosed, http.StateHijacked:
			open--
		}
	}
	srv.Start()
	defer srv.Close()

	nproc := runtime.NumCPU()
	d := newDriver(srv.URL, nproc)
	defer d.close()
	var wg sync.WaitGroup
	for i := 0; i < 20*nproc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, code, err := d.do(context.Background(), http.MethodGet, "/", nil); err != nil || code != http.StatusOK {
				t.Errorf("request: %d %v", code, err)
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if max > nproc || d.maxLive.Load() > int64(nproc) {
		t.Fatalf("driver opened %d connections (its own count %d), nproc is %d", max, d.maxLive.Load(), nproc)
	}
	if max < 1 {
		t.Fatal("no connection observed")
	}
}
