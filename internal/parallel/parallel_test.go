package parallel

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestMapOrdersResultsByIndex(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		out, err := Map(workers, 100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out) != 100 {
			t.Fatalf("workers=%d: len %d", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapZeroJobs(t *testing.T) {
	out, err := Map(4, 0, func(i int) (int, error) {
		t.Error("fn must not run for n=0")
		return 0, nil
	})
	if err != nil || len(out) != 0 {
		t.Fatalf("got %v, %v", out, err)
	}
}

func TestMapReturnsLowestIndexError(t *testing.T) {
	e3 := errors.New("job 3")
	e7 := errors.New("job 7")
	for _, workers := range []int{1, 4} {
		_, err := Map(workers, 10, func(i int) (int, error) {
			switch i {
			case 3:
				return 0, e3
			case 7:
				return 0, e7
			}
			return i, nil
		})
		if !errors.Is(err, e3) {
			t.Fatalf("workers=%d: want job-3 error, got %v", workers, err)
		}
	}
}

func TestMapRunsEveryJobOnceWhenParallel(t *testing.T) {
	var calls [64]atomic.Int32
	_, err := Map(8, len(calls), func(i int) (struct{}, error) {
		calls[i].Add(1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range calls {
		if c := calls[i].Load(); c != 1 {
			t.Fatalf("job %d ran %d times", i, c)
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int32
	_, err := Map(workers, 200, func(i int) (struct{}, error) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		// Spin briefly so jobs overlap.
		for j := 0; j < 1000; j++ {
			_ = j * j
		}
		cur.Add(-1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent jobs, want <= %d", p, workers)
	}
}

func TestBlocksCoverEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64, 1000} {
		for _, workers := range []int{0, 1, 2, 7} {
			var seen []atomic.Int32
			if n > 0 {
				seen = make([]atomic.Int32, n)
			}
			Blocks(workers, n, func(lo, hi int) {
				if lo < 0 || hi > n || lo >= hi {
					t.Errorf("n=%d workers=%d: bad block [%d,%d)", n, workers, lo, hi)
					return
				}
				for i := lo; i < hi; i++ {
					seen[i].Add(1)
				}
			})
			for i := range seen {
				if c := seen[i].Load(); c != 1 {
					t.Fatalf("n=%d workers=%d: index %d covered %d times", n, workers, i, c)
				}
			}
		}
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatalf("DefaultWorkers() = %d", DefaultWorkers())
	}
}

func TestClamp(t *testing.T) {
	cases := []struct{ workers, n, want int }{
		{4, 10, 4},
		{10, 4, 4},
		{1, 1, 1},
	}
	for _, c := range cases {
		if got := clamp(c.workers, c.n); got != c.want {
			t.Errorf("clamp(%d, %d) = %d, want %d", c.workers, c.n, got, c.want)
		}
	}
	if got := clamp(-1, 2); got < 1 || got > 2 {
		t.Errorf("clamp(-1, 2) = %d, want 1 or 2", got)
	}
}

func BenchmarkMapOverhead(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _ = Map(workers, 64, func(j int) (int, error) { return j, nil })
			}
		})
	}
}
