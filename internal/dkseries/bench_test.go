package dkseries

import (
	"testing"

	"sgr/internal/gen"
	"sgr/internal/graph"
)

func benchSource(b *testing.B, n int) *graph.Graph {
	b.Helper()
	return gen.HolmeKim(n, 4, 0.5, rng(1))
}

func BenchmarkBuild2K(b *testing.B) {
	src := benchSource(b, 3000)
	dv, err := FromGraph(src)
	if err != nil {
		b.Fatal(err)
	}
	jdm := JDMFromGraph(src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(nil, nil, dv, jdm, rng(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRewire drives the full Algorithm-6 loop on an identical
// workload through both engines: the flat adjset implementation behind
// Rewire and the frozen map-based reference (rewire_mapref_test.go).
// `make bench-json` records both in BENCH_rewire.json; the adjset variant
// must stay at least 2x lower in allocs/op with wall time no worse than
// the recorded mapref baseline.
func BenchmarkRewire(b *testing.B) {
	src := benchSource(b, 2000)
	dv, err := FromGraph(src)
	if err != nil {
		b.Fatal(err)
	}
	jdm := JDMFromGraph(src)
	res, err := Build(nil, nil, dv, jdm, rng(2))
	if err != nil {
		b.Fatal(err)
	}
	target := DegreeClustering(src)
	run := func(b *testing.B, engine func(int, []graph.Edge, []graph.Edge, RewireOptions) (*graph.Graph, RewireStats)) {
		b.ReportAllocs()
		var accepted int
		for i := 0; i < b.N; i++ {
			cands := append([]graph.Edge(nil), res.Added...)
			_, st := engine(src.N(), nil, cands, RewireOptions{
				TargetClustering: target,
				RC:               5,
				Rand:             rng(uint64(i)),
			})
			accepted = st.Accepted
		}
		b.ReportMetric(float64(accepted), "accepted/op")
	}
	b.Run("adjset", func(b *testing.B) { run(b, Rewire) })
	b.Run("mapref", func(b *testing.B) { run(b, rewireMapRef) })
	// The sharded engine on the same workload. sharded1 vs sharded2 and
	// sharded8 isolates parallel scaling (the pool clamps its width to
	// GOMAXPROCS, so sharded8 runs at most GOMAXPROCS wide); sharded1 vs
	// adjset isolates the algorithmic win (rejections never mutate, so
	// they never revert).
	runSharded := func(b *testing.B, workers int) {
		b.ReportAllocs()
		var accepted int
		for i := 0; i < b.N; i++ {
			cands := append([]graph.Edge(nil), res.Added...)
			_, st := RewireSharded(src.N(), nil, cands, ShardedRewireOptions{
				TargetClustering: target,
				RC:               5,
				Seed1:            uint64(i),
				Seed2:            uint64(i) ^ 0x5eed,
				Workers:          workers,
			})
			accepted = st.Accepted
		}
		b.ReportMetric(float64(accepted), "accepted/op")
	}
	b.Run("sharded1", func(b *testing.B) { runSharded(b, 1) })
	b.Run("sharded2", func(b *testing.B) { runSharded(b, 2) })
	b.Run("sharded8", func(b *testing.B) { runSharded(b, 8) })
}

func BenchmarkRewireAttempts(b *testing.B) {
	src := benchSource(b, 2000)
	dv, _ := FromGraph(src)
	jdm := JDMFromGraph(src)
	res, err := Build(nil, nil, dv, jdm, rng(2))
	if err != nil {
		b.Fatal(err)
	}
	target := DegreeClustering(src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cands := append([]graph.Edge(nil), res.Added...)
		// RC=1 -> one attempt per candidate edge; ns/op / len(cands) is
		// the per-attempt cost.
		Rewire(src.N(), nil, cands, RewireOptions{
			TargetClustering: target,
			RC:               1,
			Rand:             rng(uint64(i)),
		})
	}
	b.ReportMetric(float64(len(res.Added)), "attempts/op")
}

func BenchmarkDegreeClustering(b *testing.B) {
	src := benchSource(b, 3000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DegreeClustering(src)
	}
}

func BenchmarkDK25(b *testing.B) {
	src := benchSource(b, 800)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DK25(src, 5, rng(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
