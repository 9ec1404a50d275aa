package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the fewest samples a reported percentile must have above
// it: a p50 needs 20 samples, a p90 100 and a p99 1000.
const minBeyond = 10

// samples holds raw measurements. Percentiles are read from the sorted
// raw values, never from histogram buckets.
type samples []float64

func (s *samples) add(v float64) { *s = append(*s, v) }

// addDur records d in the given unit (time.Millisecond, time.Microsecond).
func (s *samples) addDur(d, unit time.Duration) { s.add(float64(d) / float64(unit)) }

// rank is the 1-based nearest-rank position of the p-quantile in n sorted
// samples: the smallest rank r with r/n >= p.
func rank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) and whether
// it may be reported: at least minBeyond samples must lie above its rank.
func (s samples) percentile(p float64) (float64, bool) {
	n := len(s)
	if n == 0 {
		return 0, false
	}
	sorted := append([]float64(nil), s...)
	sort.Float64s(sorted)
	r := rank(p, n)
	return sorted[r-1], n-r >= minBeyond
}

// median is the nearest-rank p50 without the reporting rule, for
// summaries of small sets (per-run set-up times, per-layer medians).
func (s samples) median() float64 {
	v, _ := s.percentile(0.5)
	return v
}

func (s samples) sum() float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

// minCount is the sample count at which percentile p becomes reportable.
func minCount(p float64) int {
	for n := 1; ; n++ {
		if n-rank(p, n) >= minBeyond {
			return n
		}
	}
}
