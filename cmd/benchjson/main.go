// Command benchjson converts `go test -bench` text output on stdin into a
// stable JSON document on stdout, so benchmark baselines can be committed
// and diffed (see `make bench-json`, which records the rewiring-engine
// baseline in BENCH_rewire.json).
//
// Usage:
//
//	go test -run='^$' -bench=. -benchmem ./... | go run ./cmd/benchjson
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Document is the emitted JSON root.
type Document struct {
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// Nproc is the number of CPUs usable by this process on the
	// recording machine (runtime.NumCPU, which honors the affinity mask).
	Nproc int `json:"nproc"`
	// Gomaxprocs is the GOMAXPROCS the benchmarks ran at, read from the
	// -N suffix of the first benchmark name (no suffix means 1).
	Gomaxprocs int         `json:"gomaxprocs"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	doc, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(doc.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	doc.Nproc = runtime.NumCPU()
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func parse(sc *bufio.Scanner) (*Document, error) {
	doc := &Document{}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		name, procs := splitProcSuffix(fields[0])
		if doc.Gomaxprocs == 0 {
			doc.Gomaxprocs = procs
		}
		b := Benchmark{Name: name, Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in line %q", fields[i], line)
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.NsPerOp = val
			case "B/op":
				b.BytesPerOp = val
			case "allocs/op":
				b.AllocsPerOp = val
			default:
				if b.Metrics == nil {
					b.Metrics = make(map[string]float64)
				}
				b.Metrics[unit] = val
			}
		}
		doc.Benchmarks = append(doc.Benchmarks, b)
	}
	return doc, sc.Err()
}

// splitProcSuffix drops the trailing -N GOMAXPROCS marker from a
// benchmark name (BenchmarkRewire/adjset-8 -> BenchmarkRewire/adjset, 8),
// keeping names comparable across machines. go test omits the marker at
// GOMAXPROCS 1.
func splitProcSuffix(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name, 1
	}
	procs, err := strconv.Atoi(name[i+1:])
	if err != nil {
		return name, 1
	}
	return name[:i], procs
}
