package main

import (
	"bufio"
	"strings"
	"testing"
)

// TestParseStampsGomaxprocs checks that the GOMAXPROCS marker moves from
// the benchmark names into the document, and that its absence reads as 1.
func TestParseStampsGomaxprocs(t *testing.T) {
	cases := []struct {
		in    string
		procs int
		name  string
	}{
		{"cpu: X\nBenchmarkRewire/sharded2-8 \t 5\t 100 ns/op\n", 8, "BenchmarkRewire/sharded2"},
		{"BenchmarkRewire/sharded2 \t 5\t 100 ns/op\n", 1, "BenchmarkRewire/sharded2"},
	}
	for _, c := range cases {
		doc, err := parse(bufio.NewScanner(strings.NewReader(c.in)))
		if err != nil {
			t.Fatal(err)
		}
		if doc.Gomaxprocs != c.procs || len(doc.Benchmarks) != 1 || doc.Benchmarks[0].Name != c.name {
			t.Fatalf("%q: gomaxprocs %d, benchmarks %+v; want %d, %s", c.in, doc.Gomaxprocs, doc.Benchmarks, c.procs, c.name)
		}
	}
}
