// Command perfbench is the qwm repository's benchmark. It drives an
// in-process service.Server (the stad daemon's serving stack, memory delay
// cache only) over a loopback listener, or the paper's QWM-versus-SPICE
// harness in-process, and prints every metric by name with its unit.
//
//	perfbench --workload warm_repeat --seed 1 --seconds 20 --trace 0
//
// Workloads: warm_repeat, cold_fresh, paper_tables (see README.md). With
// --trace 0 the result carries the end-to-end metrics; --trace 1 runs the
// traced replay instead and reports the per-layer metrics. The last line of
// standard output is the JSON result; the line before it is the environment
// stamp with each metric's spread across the run's repeats.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool

	mu        sync.Mutex
	attempted int
	failed    int
	problems  []string

	metrics map[string]metric
	spreads map[string]spread
	stamp   map[string]any
}

const maxProblems = 20

// check counts one checked output; a non-nil err counts it failed.
func (r *run) check(err error) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err == nil {
		return true
	}
	r.failed++
	if len(r.problems) < maxProblems {
		r.problems = append(r.problems, err.Error())
	}
	return false
}

func (r *run) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// setMedian reports the median of xs and stamps its spread.
func (r *run) setMedian(name, unit string, xs []float64) {
	s := spreadOf(xs)
	r.spreads[name] = s
	r.set(name, unit, s.Median)
}

// liveHeapMB is the live heap after full collections, in megabytes. The
// second collection empties the sync.Pool caches the first one keeps.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

func (r *run) okRatio() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.attempted == 0 {
		return 0
	}
	return float64(r.attempted-r.failed) / float64(r.attempted)
}

// traceShare is the share of a traced run each HTTP pass takes.
const traceShare = 0.3

var workloads = map[string]func(*run) error{
	"warm_repeat":  runWarm,
	"cold_fresh":   runCold,
	"paper_tables": runPaper,
}

func main() {
	var (
		workload = flag.String("workload", "", "warm_repeat, cold_fresh or paper_tables")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed generates the same requests")
		seconds  = flag.Float64("seconds", 20, "measured time of one run")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced per-layer replay")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload warm_repeat|cold_fresh|paper_tables --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		metrics:  map[string]metric{},
		spreads:  map[string]spread{},
		stamp:    map[string]any{},
	}
	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	metrics, err := published(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	out := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(out)
	enc.Encode(map[string]any{
		"env":      environment(r),
		"spread":   r.spreads,
		"details":  r.stamp,
		"problems": r.problems,
	})
	enc.Encode(result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   metrics,
	})
	if err := out.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// environment is the stamp every result carries.
func environment(r *run) map[string]any {
	return map[string]any{
		"workload":   r.workload,
		"seed":       r.seed,
		"seconds":    r.seconds.Seconds(),
		"trace":      r.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"cpu":        cpuModel(),
		"commit":     gitCommit(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads the checkout's HEAD commit without running git; a
// checkout exported without .git falls back to the revision the binary was
// built from, if the toolchain recorded one.
func gitCommit() string {
	if head, err := os.ReadFile(filepath.Join(".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		name, isRef := strings.CutPrefix(ref, "ref: ")
		if !isRef {
			return ref
		}
		if b, err := os.ReadFile(filepath.Join(".git", name)); err == nil {
			return strings.TrimSpace(string(b))
		}
		if b, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
			for _, line := range strings.Split(string(b), "\n") {
				if sha, n, ok := strings.Cut(line, " "); ok && n == name {
					return sha
				}
			}
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
