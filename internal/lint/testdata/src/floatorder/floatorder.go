// Fixture for the floatorder analyzer: no float accumulation on shared
// state from concurrently executed closures; the index-addressed slot
// pattern is the required shape.
package floatorder

import (
	"sync"

	"sgr/internal/parallel"
)

// Accumulating into a captured variable from goroutines: the scheduling
// order changes the sum bits, flagged.
func sharedGoroutine(xs []float64) float64 {
	var total float64
	var wg sync.WaitGroup
	for _, x := range xs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			total += x // want "floating-point accumulation on shared variable total"
		}()
	}
	wg.Wait()
	return total
}

// The index-addressed slot pattern: each worker owns out[i], the caller
// reduces serially in index order. Exempt.
func slotPattern(xs []float64) float64 {
	out := make([]float64, len(xs))
	_, _ = parallel.Map(0, len(xs), func(i int) (struct{}, error) {
		out[i] += xs[i] * 2
		return struct{}{}, nil
	})
	total := 0.0
	for _, v := range out {
		total += v
	}
	return total
}

// A constant index is one shared slot wearing the slot pattern's clothes:
// flagged.
func constantSlot(xs []float64) float64 {
	acc := make([]float64, 1)
	_, _ = parallel.Map(0, len(xs), func(i int) (struct{}, error) {
		acc[0] += xs[i] // want "constant-indexed slot acc"
		return struct{}{}, nil
	})
	return acc[0]
}

type stats struct{ mean float64 }

// Captured struct fields are shared state too: flagged.
func sharedField(xs []float64, s *stats) {
	_, _ = parallel.Map(0, len(xs), func(i int) (struct{}, error) {
		s.mean -= xs[i] // want "floating-point accumulation on shared field s.mean"
		return struct{}{}, nil
	})
}

// The persistent round pool's job callback runs concurrently on its
// helpers exactly like a Map callback: accumulating into captured
// state there is flagged.
func poolCallback(xs []float64) float64 {
	var total float64
	p := parallel.NewPool(0, len(xs), func(_, i int) {
		total += xs[i] // want "floating-point accumulation on shared variable total"
	})
	defer p.Close()
	p.Run(len(xs))
	return total
}

// A serial closure (not launched by go, not handed to the pool) may
// accumulate freely: exempt.
func serialClosure(xs []float64) float64 {
	var total float64
	add := func(v float64) { total += v }
	for _, x := range xs {
		add(x)
	}
	return total
}

// Worker-local accumulation inside the closure is fine — it never crosses
// goroutines: exempt.
func workerLocal(xs []float64, out []float64) {
	parallel.Blocks(0, len(xs), func(lo, hi int) {
		partial := 0.0
		for i := lo; i < hi; i++ {
			partial += xs[i]
		}
		out[lo] = partial
	})
}

// The annotated escape hatch.
func annotated(xs []float64) float64 {
	var total float64
	var mu sync.Mutex
	_, _ = parallel.Map(0, len(xs), func(i int) (struct{}, error) {
		mu.Lock()
		//sgr:nondet-ok fixture demo: result is fed to an order-insensitive consumer
		total += xs[i]
		mu.Unlock()
		return struct{}{}, nil
	})
	return total
}
