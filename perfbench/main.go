// Command perfbench is the repository's benchmark: three seeded workloads
// over the restore pipeline and its daemons, each timed from outside
// through the packages' public entry points.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload restore-rewire --seed 1 --seconds 35 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object with
// every end-to-end metric; with --trace 1 it carries every per-layer
// metric instead, and the run also writes its spans to a Chrome
// trace_event file under .bench_build/traces. The lines before it are
// comments: the run's stamp (core count, Go version, CPU, seed, commit)
// and every value with its sample count.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	scratch  string // per-run directory for journals and caches
}

// workload is one workload's runner and the scheduler width it runs at.
// The runner sets up its inputs from cfg.seed, measures for cfg.seconds,
// checks its outputs and fills the report.
type workload struct {
	run func(cfg config, rep *report, sp *spanLog) error
	// procs, when above 0, is the run's GOMAXPROCS. crawl-remote has one
	// walker waiting on one server: on a single P the two hand off on
	// one core, so a crawl's time is client, transport and server work
	// rather than cross-core wake-ups, which a shared host makes noisy.
	procs int
}

var workloads = map[string]workload{
	"restore-rewire": {run: runRestoreRewire},
	"crawl-remote":   {run: runCrawlRemote, procs: 1},
	"serve-mixed":    {run: runServeMixed},
}

func main() {
	var (
		workload = flag.String("workload", "", "restore-rewire, crawl-remote or serve-mixed")
		seed     = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 35, "measurement window in seconds")
		trace    = flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
		root     = flag.String("root", ".", "repository checkout; scratch files go under its .bench_build")
	)
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments: -workload %q -seconds %d -trace %d\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	}
	build := filepath.Join(*root, ".bench_build")
	scratch, err := os.MkdirTemp(build, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		scratch:  scratch,
	}
	st := newStamp(cfg)
	rep := newReport()
	var sp *spanLog
	if cfg.trace {
		sp = newSpanLog()
	}
	err = w.run(cfg, rep, sp)
	os.RemoveAll(scratch)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if cfg.trace {
		bypassed(rep)
		path := filepath.Join(build, "traces", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
		if err := sp.writeChrome(path, st); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "perfbench: wrote %s\n", path)
	}
	if err := printResult(cfg, st, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// bypassed sets every per-layer metric the workload did not measure to 0:
// the workload spends no time in that layer.
func bypassed(rep *report) {
	for _, d := range perLayer {
		if _, ok := rep.values[d.Name]; !ok {
			rep.set(d.Name, 0)
		}
	}
}

// stamp identifies the machine and code a result was measured on.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func newStamp(cfg config) stamp {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return stamp{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    int(cfg.seconds / time.Second),
		Trace:      cfg.trace,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     commit,
	}
}

// cpuModel reads the first "model name" from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printResult writes the stamp, the detail lines and, last, the result
// object holding exactly the declared metrics of this mode.
func printResult(cfg config, st stamp, rep *report) error {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := rep.values[d.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", cfg.workload, d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if rep.attempted < 1 {
		return fmt.Errorf("%s: no operation was attempted", cfg.workload)
	}
	stampJSON, err := json.Marshal(st)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "# stamp %s\n", stampJSON)
	fmt.Fprintf(w, "# failed_share = %.6g (failed %d of %d attempted)\n",
		float64(rep.failed)/float64(rep.attempted), rep.failed, rep.attempted)
	rep.writeDetail(w)
	fmt.Fprintf(w, "%s\n", line)
	return w.Flush()
}
