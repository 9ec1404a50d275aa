package main

import (
	"fmt"
	"io"
	"sort"
)

// metricDef declares one reported metric. BENCHMARK.json repeats these
// declarations; TestDeclarationsMatchBenchmarkJSON keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening, as a share of the median
}

// endToEnd are printed by every untraced run. Each has a meaning on every
// workload; unit_ms_p50 times the workload's unit of work (one restore,
// one remote crawl, one submit-to-download job) — see targets.json.
// Timings and peak RSS get the widest bound: on a shared 2-core VM their
// spread over ten seeds reached 0.07 to 0.5 of the median with no code
// change, as the machine's speed drifted.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"unit_ms_p50", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"live_heap_mb", "MB", "lower", 0.15},
	{"avg_l1", "ratio", "lower", 0.15},
}

// perLayer are printed by every traced run. A layer the workload never
// calls reads 0 there.
var perLayer = []metricDef{
	{Name: "estimate.ms", Unit: "ms", Better: "lower"},
	{Name: "sampling.subgraph_ms", Unit: "ms", Better: "lower"},
	{Name: "core.phase1_ms", Unit: "ms", Better: "lower"},
	{Name: "core.phase2_jdm_ms", Unit: "ms", Better: "lower"},
	{Name: "dkseries.build_ms", Unit: "ms", Better: "lower"},
	{Name: "dkseries.rewire_ms", Unit: "ms", Better: "lower"},
	{Name: "dkseries.propose_ms", Unit: "ms", Better: "lower"},
	{Name: "dkseries.commit_ms", Unit: "ms", Better: "lower"},
	{Name: "dkseries.rounds", Unit: "count", Better: "lower"},
	{Name: "dkseries.accept_ratio", Unit: "ratio", Better: "higher"},
	{Name: "dkseries.recompute_ratio", Unit: "ratio", Better: "lower"},
	{Name: "dkseries.propose_ms_w1", Unit: "ms", Better: "lower"},
	{Name: "core.restore_self_ms", Unit: "ms", Better: "lower"},
	{Name: "core.span_coverage_pct", Unit: "%", Better: "higher"},
	{Name: "core.alloc_mb_per_restore", Unit: "MB", Better: "lower"},
	{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "oracle.server_us_p50", Unit: "us", Better: "lower"},
	{Name: "oracle.server_us_p99", Unit: "us", Better: "lower"},
	{Name: "oracle.client_us_p50", Unit: "us", Better: "lower"},
	{Name: "oracle.client_overhead_us_p50", Unit: "us", Better: "lower"},
	{Name: "oracle.requests_per_query", Unit: "ratio", Better: "lower"},
	{Name: "oracle.retries", Unit: "count", Better: "lower"},
	{Name: "oracle.journal_bytes_per_query", Unit: "B", Better: "lower"},
	{Name: "sampling.walk_self_ms", Unit: "ms", Better: "lower"},
	{Name: "restored.queue_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "restored.queue_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "restored.exec_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "restored.submit_us_p50", Unit: "us", Better: "lower"},
	{Name: "restored.submit_us_p90", Unit: "us", Better: "lower"},
	{Name: "restored.poll_us_p50", Unit: "us", Better: "lower"},
	{Name: "restored.download_us_p50", Unit: "us", Better: "lower"},
	{Name: "restored.cache_read_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "restored.poll_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "restored.dedup_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "restored.pipeline_runs", Unit: "count", Better: "lower"},
	{Name: "restored.cache_hits", Unit: "count", Better: "higher"},
	{Name: "restored.dedupes", Unit: "count", Better: "higher"},
	{Name: "restored.wal_records_per_job", Unit: "ratio", Better: "lower"},
	{Name: "restored.encode_ms_total", Unit: "ms", Better: "lower"},
	{Name: "restored.jobs_known", Unit: "count", Better: "lower"},
	{Name: "restored.cache_entries", Unit: "count", Better: "lower"},
	{Name: "driver.lag_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "driver.query_us_p99", Unit: "us", Better: "lower"},
	{Name: "driver.job_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "driver.cached_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "driver.cached_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "driver.read_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "driver.read_ms_p99", Unit: "ms", Better: "lower"},
}

// report collects one run's outcome.
type report struct {
	attempted int // operations issued
	failed    int // operations failed or refused, plus failed output checks
	values    map[string]float64
	counts    map[string]int // samples behind a percentile or median
	notes     []string       // why each failure was counted
}

func newReport() *report {
	return &report{values: make(map[string]float64), counts: make(map[string]int)}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// setPct records the p-quantile of s under name with its sample count. A
// percentile without minBeyond samples above it is still recorded, with a
// warning, because the output must carry every metric.
func (r *report) setPct(name string, s samples, p float64) {
	v, ok := s.percentile(p)
	r.values[name] = v
	r.counts[name] = len(s)
	if !ok && len(s) > 0 {
		r.note(false, "%s: %d samples, fewer than the %d a reportable p%g needs", name, len(s), minCount(p), p*100)
	}
}

// setMedian records a median of per-operation values (per-layer summaries).
func (r *report) setMedian(name string, s samples) {
	r.values[name] = s.median()
	r.counts[name] = len(s)
}

// op counts one attempted operation, failed when err is non-nil.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.note(true, "op failed: %v", err)
	}
}

// check counts a failed output check.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.failed++
		r.note(true, format, args...)
	}
}

// note keeps the first few messages; counted ones are failures.
func (r *report) note(counted bool, format string, args ...any) {
	if len(r.notes) < 20 {
		prefix := "warning: "
		if counted {
			prefix = "failure: "
		}
		r.notes = append(r.notes, prefix+fmt.Sprintf(format, args...))
	}
}

// writeDetail prints every recorded value with its sample count, sorted
// by name, as comment lines ahead of the result line.
func (r *report) writeDetail(w io.Writer) {
	names := make([]string, 0, len(r.values))
	for name := range r.values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if n, ok := r.counts[name]; ok {
			fmt.Fprintf(w, "# %s = %.6g (n=%d)\n", name, r.values[name], n)
		} else {
			fmt.Fprintf(w, "# %s = %.6g\n", name, r.values[name])
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
}
