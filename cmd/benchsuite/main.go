// Command benchsuite regenerates the paper's overhead study: the Table I
// / Figure 10 micro benchmark (50 reps per operation under three device
// configurations) and the Figure 11 AnTuTu comparison, plus the §VI-B
// energy-efficiency parity check.
//
// Usage:
//
//	benchsuite            # everything
//	benchsuite -micro     # Figure 10 only
//	benchsuite -antutu    # Figure 11 only
//	benchsuite -energy    # energy-efficiency check only
//	benchsuite -fleet 64 -workers 8 -shards 8   # fleet scaling study -> BENCH_fleet.json
//	benchsuite -fleet-mem 100000      # streaming memory-budget study (peak heap + bytes/device)
//	benchsuite -telemetry             # overhead study -> BENCH_telemetry.json
//	benchsuite -obsv                  # observability overhead study -> BENCH_obsv.json
//	benchsuite -trace                 # causal-span tracing overhead study -> BENCH_trace.json
//	benchsuite -corpus                # scenario-corpus statistical replay -> BENCH_corpus.json
//	benchsuite -benchcmp              # rerun studies, compare against committed BENCH_*.json
//	benchsuite -cpuprofile cpu.pprof -memprofile mem.pprof -micro
//	benchsuite -micro -serve 127.0.0.1:9090   # live /debug/pprof during the run
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"repro/internal/accounting"
	"repro/internal/antutu"
	"repro/internal/corpus"
	"repro/internal/corpus/replay"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/fleet/population"
	"repro/internal/microbench"
	"repro/internal/scenario"
	"repro/internal/serveutil"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchsuite:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchsuite", flag.ContinueOnError)
	micro := fs.Bool("micro", false, "run the Figure 10 micro benchmark only")
	antutuOnly := fs.Bool("antutu", false, "run the Figure 11 AnTuTu benchmark only")
	energy := fs.Bool("energy", false, "run the energy-efficiency parity check only")
	reps := fs.Int("reps", microbench.DefaultReps, "micro benchmark repetitions")
	fleetN := fs.Int("fleet", 0, "run an N-device fleet scaling study")
	workers := fs.Int("workers", 0, "fleet worker count (0 = GOMAXPROCS)")
	shards := fs.Int("shards", 0, "fleet accumulator shard count (0 = workers)")
	fleetMem := fs.Int("fleet-mem", 0, "run the streaming memory-budget study over an N-device population fleet (CI uses >= 100k)")
	fleetSeed := fs.Int64("fleet-seed", 42, "fleet seed (per-device seeds derive from it)")
	fleetReps := fs.Int("fleet-reps", defaultFleetReps, "fleet study repetitions (min wall time per worker count)")
	fleetOut := fs.String("fleet-out", "BENCH_fleet.json", "fleet artifact path (empty = don't write)")
	telem := fs.Bool("telemetry", false, "run the telemetry overhead study")
	telemReps := fs.Int("telemetry-reps", experiments.DefaultTelemetryReps, "telemetry study repetitions")
	telemOut := fs.String("telemetry-out", "BENCH_telemetry.json", "telemetry artifact path (empty = don't write)")
	checkStudy := fs.Bool("check", false, "run the invariant checker overhead study")
	checkReps := fs.Int("check-reps", experiments.DefaultCheckReps, "checker study repetitions")
	checkOut := fs.String("check-out", "BENCH_check.json", "checker artifact path (empty = don't write)")
	obsvStudy := fs.Bool("obsv", false, "run the observability-plane overhead study")
	obsvReps := fs.Int("obsv-reps", experiments.DefaultObsvReps, "obsv study repetitions")
	obsvOut := fs.String("obsv-out", "BENCH_obsv.json", "obsv artifact path (empty = don't write)")
	traceStudy := fs.Bool("trace", false, "run the causal-span tracing overhead study")
	traceReps := fs.Int("trace-reps", experiments.DefaultTraceReps, "trace study repetitions")
	traceOut := fs.String("trace-out", "BENCH_trace.json", "trace artifact path (empty = don't write)")
	corpusStudy := fs.Bool("corpus", false, "run the scenario-corpus statistical replay (watchdog separation with Wilson CIs)")
	corpusReps := fs.Int("corpus-reps", replay.DefaultReps, "corpus repetitions per cell (interval gates bind at >= 30)")
	corpusCells := fs.Int("corpus-cells", 0, "restrict the corpus to the first N canonical cells (0 = all; smoke runs use 2)")
	corpusHorizon := fs.Duration("corpus-horizon", corpus.DefaultHorizon, "virtual span of each corpus scenario")
	corpusOut := fs.String("corpus-out", "BENCH_corpus.json", "corpus artifact path (empty = don't write)")
	jobsStudy := fs.Bool("jobs", false, "run the jobs control-plane throughput study (cold vs content-addressed cache)")
	jobsReps := fs.Int("jobs-reps", defaultJobsReps, "jobs study repetitions (min-over-reps wall times)")
	jobsOut := fs.String("jobs-out", "BENCH_jobs.json", "jobs artifact path (empty = don't write)")
	serveAddr := fs.String("serve", "", "serve the live observability plane (healthz, /debug/pprof) on this address; blocks after the run until interrupted")
	serveJobs := fs.Bool("serve-jobs", false, "with -serve: mount the simulation-as-a-service control plane at /jobs")
	benchcmp := fs.Bool("benchcmp", false, "rerun the fleet/telemetry/check studies and fail on >15% wall-clock regression vs the committed BENCH_*.json")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchsuite: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "benchsuite: memprofile:", err)
			}
		}()
	}
	// -serve starts the plane before the work so /debug/pprof can profile
	// a long study live; the process then blocks until Ctrl-C.
	plane, err := serveutil.Start(serveutil.Options{
		Addr: *serveAddr, Name: "benchsuite", Jobs: *serveJobs, Banner: os.Stderr,
	})
	if err != nil {
		return err
	}

	work := func() error {
		if *benchcmp {
			return benchCompare()
		}
		if *telem {
			return telemetryBench(*telemReps, *telemOut)
		}
		if *checkStudy {
			return checkBench(*checkReps, *checkOut)
		}
		if *obsvStudy {
			return obsvBench(*obsvReps, *obsvOut)
		}
		if *traceStudy {
			return traceBench(*traceReps, *traceOut)
		}
		if *corpusStudy {
			return corpusBench(corpusOptions(*corpusReps, *workers, *corpusCells, *corpusHorizon), *corpusOut)
		}
		if *jobsStudy {
			return jobsBench(*jobsReps, *jobsOut)
		}
		if *fleetMem > 0 {
			return fleetMemStudy(*fleetMem, *workers, *fleetSeed)
		}
		if *fleetN > 0 {
			return fleetBench(*fleetN, *workers, *shards, *fleetSeed, *fleetReps, *fleetOut)
		}
		all := !*micro && !*antutuOnly && !*energy

		if all || *micro {
			r, err := experiments.Fig10WithReps(*reps)
			if err != nil {
				return err
			}
			fmt.Println(r.Render())
		}
		if all || *antutuOnly {
			r, err := experiments.Fig11WithConfig(antutu.Config{})
			if err != nil {
				return err
			}
			fmt.Println(r.Render())
		}
		if all || *energy {
			if err := energyParity(); err != nil {
				return err
			}
		}
		return nil
	}

	return plane.Finish(work(), serveStop)
}

// serveStop, when non-nil, ends a -serve wait as soon as it closes;
// the CLI tests use it in place of Ctrl-C.
var serveStop chan struct{}

// fleetArtifact is the BENCH_fleet.json schema: one scaling record per
// run, so successive PRs can track the fleet's perf trajectory.
type fleetArtifact struct {
	Devices int   `json:"devices"`
	Seed    int64 `json:"seed"`
	// Cpus records the host parallelism the run had available. The
	// speedup gate below only binds when the host could physically
	// deliver it (Cpus >= workers); artifacts written on small hosts
	// still carry honest wall-clock numbers for benchcmp.
	Cpus          int           `json:"cpus"`
	Runs          []fleetTiming `json:"runs"`
	Speedup       float64       `json:"speedup"`
	Deterministic bool          `json:"deterministic"`
	// BytesPerDevice is the streaming path's allocation footprint: the
	// min-over-reps runtime.MemStats.TotalAlloc delta of the parallel
	// leg divided by the device count. benchcmp gates it alongside the
	// wall times — a fleet whose per-device churn creeps up will blow
	// the memory budget long before it blows the clock.
	BytesPerDevice float64 `json:"bytes_per_device"`
	// DeviceSimHoursPerSec is fleet throughput in simulated device-hours
	// per wall second (Summary.TotalSimH over the parallel leg's minimum
	// wall time).
	DeviceSimHoursPerSec float64      `json:"device_sim_hours_per_sec"`
	Summary              fleetNumbers `json:"summary"`
}

type fleetTiming struct {
	Workers int     `json:"workers"`
	Shards  int     `json:"shards"`
	WallMS  float64 `json:"wall_ms"`
}

type fleetNumbers struct {
	TotalDrainedJ float64 `json:"total_drained_j"`
	TotalSimH     float64 `json:"total_sim_h"`
	Attacks       int     `json:"attacks"`
	DetectionRate float64 `json:"detection_rate"`
	Failed        int     `json:"failed"`
}

// fleetSpeedupGate is the parallel-efficiency floor: with the hot paths
// allocation-free, an 8-worker run on a host with >=8 CPUs must beat the
// serial run by at least this factor.
const fleetSpeedupGate = 3.0

// defaultFleetReps repeats each worker-count run and keeps the minimum
// wall time, the same noise control the telemetry and check studies
// use — a single ~30 ms run is at the mercy of scheduler luck, which is
// exactly what the benchcmp regression gate must not be.
const defaultFleetReps = 3

// fleetBench runs the fleet study and records it in BENCH_fleet.json.
func fleetBench(devices, workers, shards int, seed int64, reps int, outPath string) error {
	art, gateErr := fleetStudy(devices, workers, shards, seed, reps)
	if art.Devices == 0 { // study itself failed before producing numbers
		return gateErr
	}
	if outPath != "" {
		blob, err := json.MarshalIndent(art, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", outPath)
	}
	return gateErr
}

// fleetStudy runs the stealth-attack fleet serially and with the
// requested worker and shard counts (reps times each, keeping the
// minimum wall time and allocation delta), prints the aggregate, checks
// the renders match byte for byte across both legs, and enforces the
// determinism and (when the host has the CPUs for it) speedup gates.
// The fleet runs the streaming path — no per-device Results are
// retained — so the allocation delta is exactly the churn the
// bytes/device budget gates. The artifact is returned even when a gate
// fails so callers can still record the numbers.
func fleetStudy(devices, workers, shards int, seed int64, reps int) (fleetArtifact, error) {
	if reps <= 0 {
		reps = defaultFleetReps
	}
	type runOut struct {
		timing  fleetTiming
		render  string
		numbers fleetNumbers
		// minAlloc is the smallest TotalAlloc delta across reps: GC
		// timing only ever adds bytes to a sample, so the minimum is the
		// honest per-run floor, same logic as the min wall time.
		minAlloc float64
	}
	runAt := func(w, s int) (runOut, error) {
		var out runOut
		for rep := 0; rep < reps; rep++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			fr, err := experiments.FleetBenchStudy(devices, w, s, seed)
			if err != nil {
				return runOut{}, err
			}
			wall := time.Since(start)
			runtime.ReadMemStats(&after)
			alloc := float64(after.TotalAlloc - before.TotalAlloc)
			for _, f := range fr.Summary.Failures {
				return runOut{}, fmt.Errorf("device %d: %s", f.Index, f.Err)
			}
			if fr.Summary.Failed > 0 {
				return runOut{}, fmt.Errorf("%d devices failed", fr.Summary.Failed)
			}
			ms := float64(wall.Microseconds()) / 1000
			if rep == 0 {
				out = runOut{
					timing: fleetTiming{Workers: fr.Workers, Shards: fr.Shards, WallMS: ms},
					render: fr.Render(),
					numbers: fleetNumbers{
						TotalDrainedJ: fr.Summary.TotalDrainedJ,
						TotalSimH:     fr.Summary.TotalSimH,
						Attacks:       fr.Summary.Attacks,
						DetectionRate: fr.Summary.DetectionRate(),
						Failed:        fr.Summary.Failed,
					},
					minAlloc: alloc,
				}
				continue
			}
			if render := fr.Render(); render != out.render {
				return runOut{}, fmt.Errorf("fleet render differs between reps at %d workers — determinism bug", w)
			}
			if ms < out.timing.WallMS {
				out.timing.WallMS = ms
			}
			if alloc < out.minAlloc {
				out.minAlloc = alloc
			}
		}
		return out, nil
	}

	serial, err := runAt(1, 1)
	if err != nil {
		return fleetArtifact{}, err
	}
	parallel, err := runAt(workers, shards)
	if err != nil {
		return fleetArtifact{}, err
	}
	fmt.Println(parallel.render)

	art := fleetArtifact{
		Devices:              devices,
		Seed:                 seed,
		Cpus:                 runtime.NumCPU(),
		Runs:                 []fleetTiming{serial.timing, parallel.timing},
		Speedup:              serial.timing.WallMS / parallel.timing.WallMS,
		Deterministic:        serial.render == parallel.render,
		BytesPerDevice:       parallel.minAlloc / float64(devices),
		DeviceSimHoursPerSec: parallel.numbers.TotalSimH / (parallel.timing.WallMS / 1000),
		Summary:              parallel.numbers,
	}
	fmt.Printf("fleet: %d devices, workers %d shards %d vs 1: %.1fms vs %.1fms (%.2fx), deterministic=%v, cpus=%d\n",
		devices, parallel.timing.Workers, parallel.timing.Shards, parallel.timing.WallMS, serial.timing.WallMS,
		art.Speedup, art.Deterministic, art.Cpus)
	fmt.Printf("fleet: %.0f B/device allocated (streaming), %.1f device-sim-hours/sec\n",
		art.BytesPerDevice, art.DeviceSimHoursPerSec)
	if !art.Deterministic {
		return art, fmt.Errorf("fleet aggregate differs between worker counts — determinism bug")
	}
	if art.Cpus >= parallel.timing.Workers {
		if art.Speedup < fleetSpeedupGate {
			return art, fmt.Errorf("fleet speedup gate failed: %.2fx < %.1fx with %d workers on %d CPUs",
				art.Speedup, fleetSpeedupGate, parallel.timing.Workers, art.Cpus)
		}
	} else {
		fmt.Printf("speedup gate (>=%.1fx) not binding: %d workers on a %d-CPU host cannot run in parallel\n",
			fleetSpeedupGate, parallel.timing.Workers, art.Cpus)
	}
	return art, nil
}

// fleetMemBudgetBytes is the peak-heap growth ceiling for a streaming
// population fleet. The streaming accumulator's live set is O(workers +
// pending window + index blocks), not O(devices), so the budget is a
// constant independent of fleet size: a 100k-device run must fit the
// same heap a 10k-device run does. Retaining 100k per-device Results
// (ledger maps, violations, custom payloads) would blow this by an
// order of magnitude — which is exactly the regression this gate is
// for.
const fleetMemBudgetBytes = 256 << 20

// memSampleEvery is how many progress ticks separate ReadMemStats
// samples during the memory study; ReadMemStats briefly stops the
// world, so sampling every device would distort the run it measures.
const memSampleEvery = 4096

// fleetMemStudy runs an N-device population fleet (heterogeneous
// cohorts from internal/fleet/population) down the streaming path and
// checks the peak-heap budget. Unlike fleetStudy this is a pass/fail
// probe, not an artifact writer: the gated bytes/device number lives in
// BENCH_fleet.json via -fleet, while this study answers "does a fleet
// two orders of magnitude larger still fit in constant memory?"
func fleetMemStudy(devices, workers int, seed int64) error {
	pop := population.Default()
	spec, err := pop.FleetSpec(devices, workers, 0, seed)
	if err != nil {
		return err
	}
	var peak atomic.Uint64
	var ticks atomic.Int64
	spec.Progress = func(fleet.Progress) {
		if ticks.Add(1)%memSampleEvery != 0 {
			return
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		for {
			cur := peak.Load()
			if ms.HeapAlloc <= cur || peak.CompareAndSwap(cur, ms.HeapAlloc) {
				return
			}
		}
	}

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fr, err := fleet.Run(context.Background(), spec)
	if err != nil {
		return err
	}
	wall := time.Since(start)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if after.HeapAlloc > peak.Load() {
		peak.Store(after.HeapAlloc)
	}

	for _, f := range fr.Summary.Failures {
		return fmt.Errorf("fleet-mem: device %d: %s", f.Index, f.Err)
	}
	if fr.Summary.Failed > 0 {
		return fmt.Errorf("fleet-mem: %d devices failed", fr.Summary.Failed)
	}
	if fr.Results != nil {
		return fmt.Errorf("fleet-mem: fleet retained per-device results — the study must stream")
	}
	peakGrowth := int64(peak.Load()) - int64(before.HeapAlloc)
	if peakGrowth < 0 {
		peakGrowth = 0
	}
	bytesPerDevice := float64(after.TotalAlloc-before.TotalAlloc) / float64(devices)
	fmt.Printf("fleet-mem: %d devices (%d cohorts), workers %d shards %d: %.1fs wall, %.1f device-sim-hours/sec\n",
		devices, len(pop.Cohorts), fr.Workers, fr.Shards, wall.Seconds(),
		fr.Summary.TotalSimH/wall.Seconds())
	fmt.Printf("fleet-mem: peak heap growth %.1f MiB (budget %.0f MiB), %.0f B/device allocated\n",
		float64(peakGrowth)/(1<<20), float64(fleetMemBudgetBytes)/(1<<20), bytesPerDevice)
	if peakGrowth > fleetMemBudgetBytes {
		return fmt.Errorf("fleet-mem: peak heap grew %.1f MiB > %.0f MiB budget — streaming path is retaining state",
			float64(peakGrowth)/(1<<20), float64(fleetMemBudgetBytes)/(1<<20))
	}
	fmt.Println("fleet-mem: memory budget pass")
	return nil
}

// telemetryArtifact is the BENCH_telemetry.json schema: the measured
// overhead floors plus the gate thresholds the repo commits to (enabled
// recording within 10% of baseline, a built-but-disabled recorder
// within 1%), so successive PRs can catch instrumentation regressions.
type telemetryArtifact struct {
	Reps               int     `json:"reps"`
	BaselineMS         float64 `json:"baseline_ms"`
	DisabledMS         float64 `json:"disabled_ms"`
	EnabledMS          float64 `json:"enabled_ms"`
	DisabledOverheadPc float64 `json:"disabled_overhead_pct"`
	EnabledOverheadPc  float64 `json:"enabled_overhead_pct"`
	DisabledGatePct    float64 `json:"disabled_gate_pct"`
	EnabledGatePct     float64 `json:"enabled_gate_pct"`
	DisabledGatePass   bool    `json:"disabled_gate_pass"`
	EnabledGatePass    bool    `json:"enabled_gate_pass"`
	EventsRecorded     uint64  `json:"events_recorded"`
	EventsDropped      uint64  `json:"events_dropped"`
}

// Overhead gates: the enabled recorder must stay within 10% of the
// uninstrumented baseline, and a recorder that is built but disabled
// must be within 1% (the cost of one branch per emission site).
const (
	enabledGatePct  = 10.0
	disabledGatePct = 1.0
)

// telemetryBench runs the overhead study and records the floors in
// BENCH_telemetry.json.
func telemetryBench(reps int, outPath string) error {
	art, gateErr := telemetryStudyRun(reps)
	if art.Reps == 0 {
		return gateErr
	}
	if outPath != "" {
		blob, err := json.MarshalIndent(art, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", outPath)
	}
	return gateErr
}

// telemetryGateScore is an attempt's worst gate statistic, each
// normalized by its threshold so one number ranks attempts across
// both gates (<= 1 means both pass).
func telemetryGateScore(r *experiments.TelemetryOverheadResult) float64 {
	return math.Max(r.DisabledOverheadPct()/disabledGatePct,
		r.EnabledOverheadPct()/enabledGatePct)
}

// telemetryStudyRun runs the overhead study — retrying up to
// obsvGateAttempts times and keeping the attempt with the best worst
// gate, the same near-threshold rationale as the obsv gate (the
// disabled statistic is a ~0-1% min-over-reps delta a single drifty
// attempt can push past 1%) — prints it and checks the gates. The
// artifact is returned even when a gate fails.
func telemetryStudyRun(reps int) (telemetryArtifact, error) {
	var res *experiments.TelemetryOverheadResult
	for attempt := 1; attempt <= obsvGateAttempts; attempt++ {
		r, err := experiments.TelemetryOverheadStudy(reps)
		if err != nil {
			return telemetryArtifact{}, err
		}
		if res == nil || telemetryGateScore(r) < telemetryGateScore(res) {
			res = r
		}
		if telemetryGateScore(res) <= 1 {
			break
		}
		fmt.Printf("telemetry gate attempt %d/%d: disabled %+.2f%%, enabled %+.2f%%, retrying\n",
			attempt, obsvGateAttempts, r.DisabledOverheadPct(), r.EnabledOverheadPct())
	}
	fmt.Println(res.Render())

	art := telemetryArtifact{
		Reps:               res.Reps,
		BaselineMS:         res.BaselineMS,
		DisabledMS:         res.DisabledMS,
		EnabledMS:          res.EnabledMS,
		DisabledOverheadPc: res.DisabledOverheadPct(),
		EnabledOverheadPc:  res.EnabledOverheadPct(),
		DisabledGatePct:    disabledGatePct,
		EnabledGatePct:     enabledGatePct,
		DisabledGatePass:   res.DisabledOverheadPct() <= disabledGatePct,
		EnabledGatePass:    res.EnabledOverheadPct() <= enabledGatePct,
		EventsRecorded:     res.EventsRecorded,
		EventsDropped:      res.EventsDropped,
	}
	fmt.Printf("gates: disabled %.2f%% <= %.0f%% pass=%v, enabled %.2f%% <= %.0f%% pass=%v\n",
		art.DisabledOverheadPc, disabledGatePct, art.DisabledGatePass,
		art.EnabledOverheadPc, enabledGatePct, art.EnabledGatePass)
	if !art.DisabledGatePass || !art.EnabledGatePass {
		return art, fmt.Errorf("telemetry overhead gate failed (disabled %+.2f%%, enabled %+.2f%%)",
			art.DisabledOverheadPc, art.EnabledOverheadPc)
	}
	return art, nil
}

// checkArtifact is the BENCH_check.json schema: the invariant checker's
// measured overhead floors and the gate the repo commits to (passive
// families 1-4 within 5% of an unchecked baseline; the differential
// oracle is reported but not gated — it is opt-in), so successive PRs
// can catch checker-cost regressions.
type checkArtifact struct {
	Reps                   int     `json:"reps"`
	BaselineMS             float64 `json:"baseline_ms"`
	EnabledMS              float64 `json:"enabled_ms"`
	DifferentialMS         float64 `json:"differential_ms"`
	EnabledOverheadPc      float64 `json:"enabled_overhead_pct"`
	DifferentialOverheadPc float64 `json:"differential_overhead_pct"`
	EnabledGatePct         float64 `json:"enabled_gate_pct"`
	EnabledGatePass        bool    `json:"enabled_gate_pass"`
	EnabledViolations      int     `json:"enabled_violations"`
	DifferentialViolations int     `json:"differential_violations"`
}

// checkGatePct: the passive checker must stay within 5% of the
// unchecked baseline to keep its always-available default honest.
const checkGatePct = 5.0

// checkBench runs the checker overhead study and records the floors in
// BENCH_check.json.
func checkBench(reps int, outPath string) error {
	art, gateErr := checkStudyRun(reps)
	if art.Reps == 0 {
		return gateErr
	}
	if outPath != "" {
		blob, err := json.MarshalIndent(art, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", outPath)
	}
	return gateErr
}

// checkStudyRun runs the checker overhead study, prints it and checks
// the gate. A nonzero violation count is itself a failure: the study
// doubles as a long-horizon invariant sweep. The artifact is returned
// even when a gate fails.
func checkStudyRun(reps int) (checkArtifact, error) {
	res, err := experiments.CheckOverheadStudy(reps)
	if err != nil {
		return checkArtifact{}, err
	}
	fmt.Println(res.Render())

	art := checkArtifact{
		Reps:                   res.Reps,
		BaselineMS:             res.BaselineMS,
		EnabledMS:              res.EnabledMS,
		DifferentialMS:         res.DifferentialMS,
		EnabledOverheadPc:      res.EnabledOverheadPct(),
		DifferentialOverheadPc: res.DifferentialOverheadPct(),
		EnabledGatePct:         checkGatePct,
		EnabledGatePass:        res.EnabledOverheadPct() <= checkGatePct,
		EnabledViolations:      res.EnabledViolations,
		DifferentialViolations: res.DifferentialViolations,
	}
	fmt.Printf("gates: enabled %.2f%% <= %.0f%% pass=%v, differential %.2f%% (reported, not gated)\n",
		art.EnabledOverheadPc, checkGatePct, art.EnabledGatePass, art.DifferentialOverheadPc)
	if art.EnabledViolations != 0 || art.DifferentialViolations != 0 {
		return art, fmt.Errorf("checker found %d passive / %d differential violations during the overhead study",
			art.EnabledViolations, art.DifferentialViolations)
	}
	if !art.EnabledGatePass {
		return art, fmt.Errorf("checker overhead gate failed (enabled %+.2f%% > %.0f%%)",
			art.EnabledOverheadPc, checkGatePct)
	}
	return art, nil
}

// obsvArtifact is the BENCH_obsv.json schema: the observability plane's
// measured overhead floors and the gate the repo commits to (a built
// but unused plane within 1% of an uninstrumented baseline; the fully
// enabled watchdog+flame path is reported, not gated — it rides on an
// enabled recorder, whose own 10% gate lives in BENCH_telemetry.json).
type obsvArtifact struct {
	Reps               int     `json:"reps"`
	BaselineMS         float64 `json:"baseline_ms"`
	DisabledMS         float64 `json:"disabled_ms"`
	EnabledMS          float64 `json:"enabled_ms"`
	DisabledOverheadPc float64 `json:"disabled_overhead_pct"`
	EnabledOverheadPc  float64 `json:"enabled_overhead_pct"`
	DisabledGatePct    float64 `json:"disabled_gate_pct"`
	DisabledGatePass   bool    `json:"disabled_gate_pass"`
	Findings           int     `json:"findings"`
	FlameStacks        int     `json:"flame_stacks"`
}

// obsvDisabledGatePct: observability that is off must cost nothing —
// within 1% of baseline, same budget as a disabled recorder.
const obsvDisabledGatePct = 1.0

// obsvBench runs the observability overhead study and records the
// floors in BENCH_obsv.json.
func obsvBench(reps int, outPath string) error {
	art, gateErr := obsvStudyRun(reps)
	if art.Reps == 0 {
		return gateErr
	}
	if outPath != "" {
		blob, err := json.MarshalIndent(art, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", outPath)
	}
	return gateErr
}

// obsvGateAttempts bounds the best-of-N retry of the paired gate: the
// gate statistic sits near its threshold (true disabled cost ~0.7%
// against a 1% gate), so one drifty attempt must not fail CI. The
// smallest attempt is the noise-floor estimate, same rationale as
// min-over-reps wall times.
const obsvGateAttempts = 3

// obsvStudyRun runs the study — retrying the paired gate up to
// obsvGateAttempts times and keeping the attempt with the smallest
// disabled overhead — prints it and checks the disabled-path gate. The enabled run doubles as a detection sweep: a stealth attack
// under a live watchdog that yields zero findings (or an empty flame)
// is a failure, not a fast run. The artifact is returned even when a
// gate fails.
func obsvStudyRun(reps int) (obsvArtifact, error) {
	var res *experiments.ObsvOverheadResult
	for attempt := 1; attempt <= obsvGateAttempts; attempt++ {
		r, err := experiments.ObsvOverheadStudy(reps)
		if err != nil {
			return obsvArtifact{}, err
		}
		if res == nil || r.DisabledOverheadPct() < res.DisabledOverheadPct() {
			res = r
		}
		if res.DisabledOverheadPct() <= obsvDisabledGatePct {
			break
		}
		fmt.Printf("obsv gate attempt %d/%d: disabled %+.2f%% > %.0f%%, retrying\n",
			attempt, obsvGateAttempts, r.DisabledOverheadPct(), obsvDisabledGatePct)
	}
	fmt.Println(res.Render())

	art := obsvArtifact{
		Reps:               res.Reps,
		BaselineMS:         res.BaselineMS,
		DisabledMS:         res.DisabledMS,
		EnabledMS:          res.EnabledMS,
		DisabledOverheadPc: res.DisabledOverheadPct(),
		EnabledOverheadPc:  res.EnabledOverheadPct(),
		DisabledGatePct:    obsvDisabledGatePct,
		DisabledGatePass:   res.DisabledOverheadPct() <= obsvDisabledGatePct,
		Findings:           res.Findings,
		FlameStacks:        res.FlameStacks,
	}
	fmt.Printf("gates: disabled %.2f%% <= %.0f%% pass=%v, enabled %.2f%% (reported, not gated)\n",
		art.DisabledOverheadPc, obsvDisabledGatePct, art.DisabledGatePass, art.EnabledOverheadPc)
	if art.Findings == 0 || art.FlameStacks == 0 {
		return art, fmt.Errorf("obsv study sanity failed: %d findings, %d flame stacks from a stealth-attack run",
			art.Findings, art.FlameStacks)
	}
	if !art.DisabledGatePass {
		return art, fmt.Errorf("obsv overhead gate failed (disabled %+.2f%% > %.0f%%)",
			art.DisabledOverheadPc, obsvDisabledGatePct)
	}
	return art, nil
}

// traceArtifact is the BENCH_trace.json schema: the causal span
// subsystem's measured overhead floors and the gates the repo commits
// to — a compiled-in but disabled tracer within 1% of an untraced
// baseline (every untraced job pays this path), and every-device
// tracing within 10% (the full-fidelity debugging mode). The default
// 1-in-64 head sampling sits between the two and is reported, not
// gated.
type traceArtifact struct {
	Reps               int     `json:"reps"`
	BaselineMS         float64 `json:"baseline_ms"`
	DisabledMS         float64 `json:"disabled_ms"`
	SampledMS          float64 `json:"sampled_ms"`
	FullMS             float64 `json:"full_ms"`
	DisabledOverheadPc float64 `json:"disabled_overhead_pct"`
	SampledOverheadPc  float64 `json:"sampled_overhead_pct"`
	FullOverheadPc     float64 `json:"full_overhead_pct"`
	DisabledGatePct    float64 `json:"disabled_gate_pct"`
	FullGatePct        float64 `json:"full_gate_pct"`
	DisabledGatePass   bool    `json:"disabled_gate_pass"`
	FullGatePass       bool    `json:"full_gate_pass"`
	Spans              int     `json:"spans"`
	DroppedSpans       uint64  `json:"dropped_spans"`
}

// Trace overhead gates: disabled shares the 1% "off costs nothing"
// budget with the recorder and the observability plane; full tracing
// shares the 10% enabled-instrumentation budget.
const (
	traceDisabledGatePct = 1.0
	traceFullGatePct     = 10.0
)

// traceBench runs the tracing overhead study and records the floors
// in BENCH_trace.json.
func traceBench(reps int, outPath string) error {
	art, gateErr := traceStudyRun(reps)
	if art.Reps == 0 {
		return gateErr
	}
	if outPath != "" {
		blob, err := json.MarshalIndent(art, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", outPath)
	}
	return gateErr
}

// traceGateScore is an attempt's worst gate statistic, each
// normalized by its threshold, so one number ranks attempts whose two
// gates drift independently.
func traceGateScore(r *experiments.TraceOverheadResult) float64 {
	d := r.DisabledOverheadPct() / traceDisabledGatePct
	f := r.FullOverheadPct() / traceFullGatePct
	if d > f {
		return d
	}
	return f
}

// traceStudyRun runs the study — retrying up to obsvGateAttempts
// times, keeping the attempt with the best worst-gate score, because
// both statistics sit near their thresholds on a noisy host — prints
// it and checks both gates. A full run that collected no spans is a
// failure, not a fast run. The artifact is returned even when a gate
// fails.
func traceStudyRun(reps int) (traceArtifact, error) {
	var res *experiments.TraceOverheadResult
	for attempt := 1; attempt <= obsvGateAttempts; attempt++ {
		r, err := experiments.TraceOverheadStudy(reps)
		if err != nil {
			return traceArtifact{}, err
		}
		if res == nil || traceGateScore(r) < traceGateScore(res) {
			res = r
		}
		if traceGateScore(res) <= 1 {
			break
		}
		fmt.Printf("trace gate attempt %d/%d: disabled %+.2f%%, full %+.2f%%, retrying\n",
			attempt, obsvGateAttempts, r.DisabledOverheadPct(), r.FullOverheadPct())
	}
	fmt.Println(res.Render())

	art := traceArtifact{
		Reps:               res.Reps,
		BaselineMS:         res.BaselineMS,
		DisabledMS:         res.DisabledMS,
		SampledMS:          res.SampledMS,
		FullMS:             res.FullMS,
		DisabledOverheadPc: res.DisabledOverheadPct(),
		SampledOverheadPc:  res.SampledOverheadPct(),
		FullOverheadPc:     res.FullOverheadPct(),
		DisabledGatePct:    traceDisabledGatePct,
		FullGatePct:        traceFullGatePct,
		DisabledGatePass:   res.DisabledOverheadPct() <= traceDisabledGatePct,
		FullGatePass:       res.FullOverheadPct() <= traceFullGatePct,
		Spans:              res.Spans,
		DroppedSpans:       res.Dropped,
	}
	fmt.Printf("gates: disabled %.2f%% <= %.0f%% pass=%v, full %.2f%% <= %.0f%% pass=%v, sampled %.2f%% (reported, not gated)\n",
		art.DisabledOverheadPc, traceDisabledGatePct, art.DisabledGatePass,
		art.FullOverheadPc, traceFullGatePct, art.FullGatePass, art.SampledOverheadPc)
	if art.Spans == 0 || art.DroppedSpans != 0 {
		return art, fmt.Errorf("trace study sanity failed: %d spans, %d dropped from a fully traced fleet",
			art.Spans, art.DroppedSpans)
	}
	if !art.DisabledGatePass || !art.FullGatePass {
		return art, fmt.Errorf("trace overhead gate failed (disabled %+.2f%% gate %.0f%%, full %+.2f%% gate %.0f%%)",
			art.DisabledOverheadPc, traceDisabledGatePct, art.FullOverheadPc, traceFullGatePct)
	}
	return art, nil
}

// benchRegressionPct is the wall-clock regression budget benchcmp
// tolerates against the committed artifacts before failing.
const benchRegressionPct = 15.0

// readArtifact loads a committed BENCH_*.json file.
func readArtifact(path string, v any) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("benchcmp: %w (regenerate it with the matching study flag first)", err)
	}
	if err := json.Unmarshal(blob, v); err != nil {
		return fmt.Errorf("benchcmp: %s: %w", path, err)
	}
	return nil
}

// benchCompare reruns the fleet, telemetry and checker studies at the
// shape recorded in the committed BENCH_*.json artifacts and fails when
// any wall-clock number regressed by more than benchRegressionPct. The
// committed files are not rewritten — this is the CI regression gate,
// not the regeneration path.
func benchCompare() error {
	var regressions []string
	compareBy := func(name, unit string, fresh, committed float64) {
		// A study that failed before measuring leaves fresh at zero;
		// its error is reported instead.
		if committed <= 0 || fresh <= 0 {
			return
		}
		pct := (fresh - committed) / committed * 100
		status := "ok"
		if pct > benchRegressionPct {
			status = "REGRESSION"
			regressions = append(regressions, fmt.Sprintf(
				"%s: %.1f%s vs committed %.1f%s (%+.1f%% > +%.0f%%)",
				name, fresh, unit, committed, unit, pct, benchRegressionPct))
		}
		fmt.Printf("benchcmp: %-24s %9.1f%s vs %9.1f%s committed  %+6.1f%%  %s\n",
			name, fresh, unit, committed, unit, pct, status)
	}
	compare := func(name string, fresh, committed float64) {
		compareBy(name, "ms", fresh, committed)
	}
	// Every study runs and prints even when an earlier one fails (a
	// gate the host cannot meet, say); their errors are returned
	// together with the regressions at the end.
	var failed []error
	study := func(name string, run func() error) {
		if err := run(); err != nil {
			fmt.Printf("benchcmp: %s study failed: %v\n", name, err)
			failed = append(failed, fmt.Errorf("%s: %w", name, err))
		}
	}

	study("fleet", func() error {
		var oldFleet fleetArtifact
		if err := readArtifact("BENCH_fleet.json", &oldFleet); err != nil {
			return err
		}
		if len(oldFleet.Runs) == 0 {
			return fmt.Errorf("benchcmp: BENCH_fleet.json has no runs")
		}
		lastRun := oldFleet.Runs[len(oldFleet.Runs)-1]
		newFleet, err := fleetStudy(oldFleet.Devices, lastRun.Workers, lastRun.Shards, oldFleet.Seed, defaultFleetReps)
		for _, nr := range newFleet.Runs {
			for _, or := range oldFleet.Runs {
				if or.Workers == nr.Workers {
					compare(fmt.Sprintf("fleet/%dworkers", nr.Workers), nr.WallMS, or.WallMS)
				}
			}
		}
		// The memory budget is a first-class gate: streaming keeps the
		// per-device allocation churn flat, and a >15% creep here is a
		// regression even when the wall clock still passes.
		compareBy("fleet/bytes_per_device", "B", newFleet.BytesPerDevice, oldFleet.BytesPerDevice)
		return err
	})

	study("telemetry", func() error {
		var oldTelem telemetryArtifact
		if err := readArtifact("BENCH_telemetry.json", &oldTelem); err != nil {
			return err
		}
		newTelem, err := telemetryStudyRun(oldTelem.Reps)
		compare("telemetry/baseline", newTelem.BaselineMS, oldTelem.BaselineMS)
		compare("telemetry/enabled", newTelem.EnabledMS, oldTelem.EnabledMS)
		return err
	})

	study("check", func() error {
		var oldCheck checkArtifact
		if err := readArtifact("BENCH_check.json", &oldCheck); err != nil {
			return err
		}
		newCheck, err := checkStudyRun(oldCheck.Reps)
		compare("check/baseline", newCheck.BaselineMS, oldCheck.BaselineMS)
		compare("check/enabled", newCheck.EnabledMS, oldCheck.EnabledMS)
		return err
	})

	study("obsv", func() error {
		var oldObsv obsvArtifact
		if err := readArtifact("BENCH_obsv.json", &oldObsv); err != nil {
			return err
		}
		newObsv, err := obsvStudyRun(oldObsv.Reps)
		compare("obsv/baseline", newObsv.BaselineMS, oldObsv.BaselineMS)
		compare("obsv/enabled", newObsv.EnabledMS, oldObsv.EnabledMS)
		return err
	})

	study("trace", func() error {
		var oldTrace traceArtifact
		if err := readArtifact("BENCH_trace.json", &oldTrace); err != nil {
			return err
		}
		newTrace, err := traceStudyRun(oldTrace.Reps)
		compare("trace/baseline", newTrace.BaselineMS, oldTrace.BaselineMS)
		compare("trace/full", newTrace.FullMS, oldTrace.FullMS)
		return err
	})

	study("corpus", func() error { return corpusCompare(compare) })
	study("jobs", func() error { return jobsCompare(compare) })

	if len(regressions) > 0 {
		failed = append(failed, fmt.Errorf("benchcmp: %d wall-clock regression(s):\n  %s",
			len(regressions), joinLines(regressions)))
	}
	if len(failed) > 0 {
		return errors.Join(failed...)
	}
	fmt.Println("benchcmp: no wall-clock regressions")
	return nil
}

func joinLines(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += "\n  "
		}
		out += s
	}
	return out
}

// energyParity reruns scene #1 with and without E-Android and reports
// the simulated battery drop of each (the paper's §VI-B check: "the
// decreased energy level is the same between Android and E-Android").
func energyParity() error {
	run := func(enabled bool) (float64, error) {
		w, err := scenario.NewWorld(device.Config{
			EAndroid: enabled,
			Policy:   accounting.BatteryStats,
		})
		if err != nil {
			return 0, err
		}
		if err := w.Scene1MessageFilm(); err != nil {
			return 0, err
		}
		return w.Dev.DrainedJ(), nil
	}
	with, err := run(true)
	if err != nil {
		return err
	}
	without, err := run(false)
	if err != nil {
		return err
	}
	fmt.Printf("Energy efficiency (paper §VI-B):\n")
	fmt.Printf("  scene #1 drain with    E-Android: %.3f J\n", with)
	fmt.Printf("  scene #1 drain without E-Android: %.3f J\n", without)
	if math.Abs(with-without) < 1e-9 {
		fmt.Println("  identical — E-Android draws nothing extra outside collateral events")
	} else {
		fmt.Printf("  DIFFER by %.3g J\n", with-without)
	}
	return nil
}
