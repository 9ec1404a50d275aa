package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand/v2"
	"sort"
	"time"
)

// opKind is a serve-mixed operation class.
type opKind uint8

const (
	opRead  opKind = iota // graphd GET /v1/nodes/{id}/neighbors
	opJob                 // new restore job: submit, poll, download
	opWarm                // job whose result is already in the disk cache
	opDedup               // resubmission of a job done earlier in the run
	numKinds
)

var kindNames = [numKinds]string{"read", "job", "warm", "dedup"}

// rates are the open-loop arrival rates per second of each class.
type rates [numKinds]float64

// event is one scheduled operation.
type event struct {
	At   time.Duration // due time from the start of the window
	Kind opKind
	Seq  int // index within its class
	Arg  int // read: node id; dedup: Seq of the job it repeats
}

// dedupAge is how long before a dedup op the job it repeats was due, when
// such a job exists, so that the job has usually finished.
const dedupAge = 3 * time.Second

// counts is how many operations of each class a window holds.
func (r rates) counts(window time.Duration) [numKinds]int {
	var n [numKinds]int
	for k, rate := range r {
		n[k] = int(math.Round(rate * window.Seconds()))
	}
	return n
}

// makeSchedule draws the window's operations from seed. Each class is a
// Poisson process conditioned on its count: count = rate × window, and
// the arrival times are that many uniform draws, sorted. Fixing the count
// keeps every class's sample size the same from seed to seed. The result
// is sorted by due time; hash identifies it.
func makeSchedule(seed uint64, window time.Duration, nodes int, r rates) (events []event, hash string) {
	s := mix(seed, tagSchedule)
	rng := rand.New(rand.NewPCG(s, s^0x2545f4914f6cdd1d))
	n := r.counts(window)
	if n[opJob] == 0 {
		n[opDedup] = 0 // nothing to resubmit
	}
	times := func(k int) []time.Duration {
		ts := make([]time.Duration, n[k])
		for i := range ts {
			ts[i] = time.Duration(rng.Float64() * float64(window))
		}
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		return ts
	}
	var jobTimes []time.Duration
	for k := opKind(0); k < numKinds; k++ {
		ts := times(int(k))
		if k == opJob {
			jobTimes = ts
		}
		for i, at := range ts {
			ev := event{At: at, Kind: k, Seq: i}
			switch k {
			case opRead:
				ev.Arg = rng.IntN(nodes)
			case opDedup:
				// A job due at least age earlier; if there is none, the
				// op moves to age after the first job.
				age := min(dedupAge, window/4)
				eligible := sort.Search(len(jobTimes), func(j int) bool { return jobTimes[j] > at-age })
				if eligible > 0 {
					ev.Arg = rng.IntN(eligible)
				} else if len(jobTimes) > 0 {
					ev.At = min(jobTimes[0]+age, window)
				}
			}
			events = append(events, ev)
		}
	}
	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Seq < b.Seq
	})
	h := sha256.New()
	var buf [25]byte
	for _, ev := range events {
		binary.LittleEndian.PutUint64(buf[0:], uint64(ev.At))
		buf[8] = byte(ev.Kind)
		binary.LittleEndian.PutUint64(buf[9:], uint64(ev.Seq))
		binary.LittleEndian.PutUint64(buf[17:], uint64(ev.Arg))
		h.Write(buf[:])
	}
	return events, hex.EncodeToString(h.Sum(nil))
}
