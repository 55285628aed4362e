// Command e2ebench is the repository's end-to-end benchmark. It runs one
// of three workloads against the simulator from the outside — through
// public functions, fleet hooks and the jobs HTTP API — for a fixed wall
// time, checks the simulated outputs against committed reference
// digests, and prints every metric by name with its unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run is split into an untraced and a traced leg and reports the
// per-layer metrics instead (spans, CPU-profile fold, GC figures,
// telemetry counters and the tracing overhead). See README.md for the
// workloads and why each was chosen.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash e2ebench/run.sh -workload fleet-population -seed 1 -seconds 10 -trace 0
//	bash e2ebench/run.sh -workload all     # every workload, one after another
//	bash e2ebench/run.sh -write-reference  # regenerate testdata/reference.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// DefaultSeed is the seed the committed reference digests were taken
// at. HeldOutSeed is never used while tuning the benchmark or a change;
// a claimed gain should be confirmed on it.
const (
	DefaultSeed = 1
	HeldOutSeed = 20171
)

// config is one invocation's settings. Sizes live here so the self-test
// can shrink every workload.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workers  int
	outDir   string
	refPath  string

	popDevices    int // devices per fleet-population batch
	sigDevices    int // devices per fleet-powersig batch
	setupReps     int // set-ups per run; setup_s is their median
	renderReps    int // Summary renders timed per fleet batch
	jobsUniverse  int // distinct job specs the Zipf draw ranks
	epochRequests int // requests per jobs-zipf epoch
}

func defaultConfig() config {
	return config{
		seed:          DefaultSeed,
		seconds:       10,
		workers:       min(2, runtime.NumCPU()),
		outDir:        filepath.Join(".bench_build", "e2ebench"),
		refPath:       filepath.Join("e2ebench", "testdata", "reference.json"),
		popDevices:    1024,
		sigDevices:    256,
		setupReps:     5,
		renderReps:    16,
		jobsUniverse:  1024,
		epochRequests: 2048,
	}
}

// result is one workload run's outcome.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Traffic   map[string]any    `json:"traffic"`
	Host      host              `json:"host"`
	Problems  []string          `json:"problems,omitempty"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) set(name string, v float64) {
	unit, ok := metricUnits[name]
	if !ok {
		panic("e2ebench: undeclared metric " + name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a correctness problem; any problem makes the run
// incorrect.
func (r *result) fail(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(config, *reference) (*result, error){
	"fleet-population": runFleetPopulation,
	"fleet-powersig":   runFleetPowersig,
	"jobs-zipf":        runJobsZipf,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	cfg := defaultConfig()
	var traceFlag int
	var writeRef bool
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", ")+" or all")
	flag.Int64Var(&cfg.seed, "seed", cfg.seed, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "measured wall time per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.BoolVar(&writeRef, "write-reference", false, "regenerate the reference digests at the default seed and exit")
	flag.Parse()
	cfg.trace = traceFlag == 1

	if writeRef {
		if err := writeReference(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// run executes the selected workload(s), prints the report and writes
// the result file. The final stdout line is the result JSON.
func run(cfg config, out io.Writer) error {
	var names []string
	switch {
	case cfg.workload == "all":
		names = workloadNames()
	case workloads[cfg.workload] != nil:
		names = []string{cfg.workload}
	default:
		return fmt.Errorf("unknown workload %q (want %s or all)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	ref, err := loadReference(cfg.refPath)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	h := fingerprint()
	var results []*result
	for _, name := range names {
		c := cfg
		c.workload = name
		r, err := workloads[name](c, ref)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		r.Workload, r.Seed, r.Traced, r.Host = name, cfg.seed, cfg.trace, h
		r.Correct = len(r.Problems) == 0
		if r.Attempted < 1 {
			return fmt.Errorf("%s: no operation completed in %.1f s", name, cfg.seconds)
		}
		report(out, r)
		if err := writeResult(cfg, r); err != nil {
			return err
		}
		results = append(results, r)
	}
	line, err := json.Marshal(summaryLine(results))
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	return nil
}

// summaryLine folds the results into the one-object contract line. A
// single workload reports its metrics by name; "all" prefixes each
// metric with its workload.
func summaryLine(results []*result) map[string]any {
	correct := true
	attempted, failed := 0, 0
	metrics := map[string]metric{}
	for _, r := range results {
		correct = correct && r.Correct
		attempted += r.Attempted
		failed += r.Failed
		for k, v := range r.Metrics {
			if len(results) > 1 {
				k = r.Workload + "/" + k
			}
			metrics[k] = v
		}
	}
	return map[string]any{"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
}

func report(out io.Writer, r *result) {
	mode := "end-to-end"
	if r.Traced {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(out, "== %s seed=%d %s: correct=%v attempted=%d failed=%d error_ratio=%.4f\n",
		r.Workload, r.Seed, mode, r.Correct, r.Attempted, r.Failed, float64(r.Failed)/float64(r.Attempted))
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "  %-36s %14.4f %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	traffic, _ := json.Marshal(r.Traffic)
	fmt.Fprintf(out, "  traffic: %s\n", traffic)
	hostLine, _ := json.Marshal(r.Host)
	fmt.Fprintf(out, "  host: %s\n", hostLine)
	for _, p := range r.Problems {
		fmt.Fprintf(out, "  GATE FAILED: %s\n", p)
	}
}

func writeResult(cfg config, r *result) error {
	suffix := ""
	if r.Traced {
		suffix = "-traced"
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("result-%s-seed%d%s.json", r.Workload, r.Seed, suffix))
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// host is the fingerprint recorded with every result, so numbers from
// different machines are never compared blind.
type host struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	CalibNs    float64 `json:"calibration_ns"`
}

func fingerprint() host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CalibNs:    calibrate(),
	}
}

// calibSink keeps the calibration loop from being optimized away.
var calibSink uint64

// calibrate times a fixed integer loop (median of five), a host-speed
// yardstick for comparing results across machines.
func calibrate() float64 {
	times := make([]float64, 5)
	for r := range times {
		start := time.Now()
		x := uint64(r)
		for i := 0; i < 1<<22; i++ {
			x += 0x9e3779b97f4a7c15
			x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
			x ^= x >> 31
		}
		calibSink += x
		times[r] = float64(time.Since(start).Nanoseconds())
	}
	return median(times)
}
