package obs

import (
	"sort"
	"strconv"
	"sync/atomic"
)

// LatencyBuckets are the default histogram bucket upper bounds: a 1-2-5
// log-spaced series in microseconds from 1µs to 5×10⁹µs (~83 minutes).
// The table is fixed — every histogram shares one layout, so exposition
// output is byte-stable and two daemons' scrapes line up bucket for
// bucket. Consecutive bounds differ by at most 2.5×, which bounds how far
// a quantile readout can sit above the true sample quantile.
var LatencyBuckets = func() []int64 {
	var b []int64
	for scale := int64(1); scale <= 1_000_000_000; scale *= 10 {
		b = append(b, scale, 2*scale, 5*scale)
	}
	return b
}()

// Histogram counts observations into the fixed LatencyBuckets layout with
// lock-free atomic increments. Values above the last bound land in an
// overflow (+Inf) bucket. There is no separate total: every count and
// quantile readout is derived from one pass over the buckets, so a reader
// racing Observe can never see a total that disagrees with its buckets.
// The zero value is NOT ready; use NewHistogram or Registry.Histogram.
type Histogram struct {
	counts []atomic.Int64 // len(LatencyBuckets)+1; last is +Inf
	sum    atomic.Int64
}

// NewHistogram returns an unregistered histogram (oracle.Client keeps one
// per client without a registry).
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]atomic.Int64, len(LatencyBuckets)+1)}
}

// Observe records one value (microseconds for latency histograms).
// Negative observations count as zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	// Binary search for the first bound >= v; above all bounds lands in
	// the overflow slot.
	i := sort.Search(len(LatencyBuckets), func(i int) bool { return LatencyBuckets[i] >= v })
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations: the sum of the buckets.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Quantile returns the q-quantile readout (0 < q <= 1): the upper bound of
// the bucket holding the ceil(q·count)-th smallest observation. The
// readout is exact in bucket resolution — it never sits below the true
// sample quantile, and never more than one bucket ratio (≤2.5×) above it.
// Observations in the overflow bucket report the last finite bound.
// An empty histogram reports 0. The readout comes from one Snapshot, so
// its rank and its bucket walk see the same observations.
func (h *Histogram) Quantile(q float64) int64 { return h.Snapshot().Quantile(q) }

// quantileRank turns a quantile into a 1-based rank over total
// observations: the index of the ceil(q·total)-th smallest sample, clamped
// to [1, total].
func quantileRank(q float64, total int64) int64 {
	rank := int64(q * float64(total))
	if float64(rank) < q*float64(total) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	return rank
}

// HistogramSnapshot is a point-in-time copy of a histogram's buckets —
// plain int64s, detached from the live atomics, so interval reporters can
// difference two snapshots without racing concurrent Observe calls.
type HistogramSnapshot struct {
	// Counts holds per-bucket (NON-cumulative) observation counts in the
	// LatencyBuckets layout; the extra last slot is the +Inf overflow.
	Counts []int64
	// Count is the total number of observations in Counts.
	Count int64
	// Sum is the sum of observed values. Under concurrent observation it
	// may lag or lead Counts by in-flight observations (the buckets and
	// the sum are separate atomics); Count is always consistent with
	// Counts.
	Sum int64
}

// Snapshot copies the histogram's current bucket counts. Each bucket is
// loaded atomically; a concurrent Observe lands either entirely before or
// entirely after its bucket's load, and because buckets only grow, the
// delta between two successive snapshots is non-negative bucket by bucket.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Counts: make([]int64, len(h.counts)), Sum: h.sum.Load()}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	return s
}

// Delta returns the interval view s−prev: observations recorded after prev
// was taken and up to s. prev must be an earlier snapshot of the same
// histogram (the zero HistogramSnapshot works as "since the beginning").
// Negative per-bucket deltas — snapshots from different histograms, or
// swapped arguments — clamp to zero rather than poisoning rate math.
func (s HistogramSnapshot) Delta(prev HistogramSnapshot) HistogramSnapshot {
	d := HistogramSnapshot{Counts: make([]int64, len(s.Counts)), Sum: s.Sum - prev.Sum}
	for i := range s.Counts {
		v := s.Counts[i]
		if i < len(prev.Counts) {
			v -= prev.Counts[i]
		}
		if v < 0 {
			v = 0
		}
		d.Counts[i] = v
		d.Count += v
	}
	if d.Sum < 0 {
		d.Sum = 0
	}
	return d
}

// Quantile reads the q-quantile (0 < q <= 1) from the snapshot with the
// same bucket-upper-bound semantics as Histogram.Quantile: never below the
// true sample quantile, at most one bucket ratio above it, overflow
// reported as the last finite bound, 0 when empty.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := quantileRank(q, s.Count)
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			if i >= len(LatencyBuckets) {
				return LatencyBuckets[len(LatencyBuckets)-1]
			}
			return LatencyBuckets[i]
		}
	}
	return LatencyBuckets[len(LatencyBuckets)-1]
}

// appendPrometheus renders the histogram: cumulative le-labeled buckets,
// _sum and _count, then derived _p50/_p99/_p999 gauges (their own # TYPE
// blocks — the quantile readout the scrape-side SLO checks consume
// without histogram math). Everything renders from one Snapshot, so a
// scrape taken during writes is internally consistent: _count equals the
// +Inf bucket and the quantile gauges read the same buckets.
func (h *Histogram) appendPrometheus(buf []byte, name string) []byte {
	s := h.Snapshot()
	var cum int64
	for i, bound := range LatencyBuckets {
		cum += s.Counts[i]
		buf = append(buf, name...)
		buf = append(buf, `_bucket{le="`...)
		buf = strconv.AppendInt(buf, bound, 10)
		buf = append(buf, `"} `...)
		buf = strconv.AppendInt(buf, cum, 10)
		buf = append(buf, '\n')
	}
	cum += s.Counts[len(LatencyBuckets)]
	buf = append(buf, name...)
	buf = append(buf, `_bucket{le="+Inf"} `...)
	buf = strconv.AppendInt(buf, cum, 10)
	buf = append(buf, '\n')
	buf = appendScalar(buf, name+"_sum", s.Sum)
	buf = appendScalar(buf, name+"_count", s.Count)
	for _, p := range [...]struct {
		suffix string
		q      float64
	}{{"_p50", 0.50}, {"_p99", 0.99}, {"_p999", 0.999}} {
		buf = append(buf, "# TYPE "...)
		buf = append(buf, name...)
		buf = append(buf, p.suffix...)
		buf = append(buf, " gauge\n"...)
		buf = appendScalar(buf, name+p.suffix, s.Quantile(p.q))
	}
	return buf
}
