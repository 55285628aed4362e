// Command benchsuite regenerates the paper's overhead study: the Table I
// / Figure 10 micro benchmark (50 reps per operation under three device
// configurations) and the Figure 11 AnTuTu comparison, plus the §VI-B
// energy-efficiency parity check — and the repo's own studies, each of
// which writes BENCH_<study>.json (-out PATH elsewhere, -out "" nowhere)
// at its default repetitions (-reps N to override).
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
//	benchsuite -check                 # invariant-checker overhead study -> BENCH_check.json
//	benchsuite -obsv                  # observability overhead study -> BENCH_obsv.json
//	benchsuite -trace                 # causal-span tracing overhead study -> BENCH_trace.json
//	benchsuite -corpus                # scenario-corpus statistical replay -> BENCH_corpus.json
//	benchsuite -jobs                  # jobs control-plane cache study -> BENCH_jobs.json
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
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/accounting"
	"repro/internal/antutu"
	"repro/internal/corpus"
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
	reps := fs.Int("reps", 0, "repetitions of the selected study or the micro benchmark (0 = its default)")
	fleetN := fs.Int("fleet", 0, "run an N-device fleet scaling study")
	workers := fs.Int("workers", 0, "fleet worker count (0 = GOMAXPROCS)")
	shards := fs.Int("shards", 0, "fleet accumulator shard count (0 = workers)")
	fleetMem := fs.Int("fleet-mem", 0, "run the streaming memory-budget study over an N-device population fleet (CI uses >= 100k)")
	telem := fs.Bool("telemetry", false, "run the telemetry overhead study")
	checkOn := fs.Bool("check", false, "run the invariant checker overhead study")
	obsvOn := fs.Bool("obsv", false, "run the observability-plane overhead study")
	traceOn := fs.Bool("trace", false, "run the causal-span tracing overhead study")
	corpusOn := fs.Bool("corpus", false, "run the scenario-corpus statistical replay (watchdog separation with Wilson CIs; interval gates bind at -reps >= 30)")
	corpusCells := fs.Int("corpus-cells", 0, "restrict the corpus to the first N canonical cells (0 = all; smoke runs use 2)")
	corpusHorizon := fs.Duration("corpus-horizon", corpus.DefaultHorizon, "virtual span of each corpus scenario")
	jobsOn := fs.Bool("jobs", false, "run the jobs control-plane throughput study (cold vs content-addressed cache)")
	out := fs.String("out", "", "artifact path of the selected study (unset = BENCH_<study>.json, empty = don't write)")
	serveAddr := fs.String("serve", "", "serve the live observability plane (healthz, /debug/pprof) on this address; blocks after the run until interrupted")
	serveJobs := fs.Bool("serve-jobs", false, "with -serve: mount the simulation-as-a-service control plane at /jobs")
	benchcmp := fs.Bool("benchcmp", false, "rerun the fleet, telemetry, check, obsv, trace, corpus and jobs studies and fail on >15% wall-clock regression vs the committed BENCH_*.json")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	outSet := false
	fs.Visit(func(f *flag.Flag) { outSet = outSet || f.Name == "out" })
	outPath := func(study string) string {
		if outSet {
			return *out
		}
		return "BENCH_" + study + ".json"
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
		switch {
		case *benchcmp:
			return benchCompare()
		case *telem:
			return telemetryStudy.bench(*reps, outPath("telemetry"))
		case *checkOn:
			return checkStudy.bench(*reps, outPath("check"))
		case *obsvOn:
			return obsvStudy.bench(*reps, outPath("obsv"))
		case *traceOn:
			return traceStudy.bench(*reps, outPath("trace"))
		case *corpusOn:
			art, err := corpusStudyRun(corpusOptions(*reps, *workers, *corpusCells, *corpusHorizon))
			if len(art.Cells) == 0 {
				return err
			}
			return writeArtifact(outPath("corpus"), art, err)
		case *jobsOn:
			art, err := jobsStudyRun(*reps)
			if art.Jobs == 0 {
				return err
			}
			return writeArtifact(outPath("jobs"), art, err)
		case *fleetMem > 0:
			return fleetMemStudy(*fleetMem, *workers)
		case *fleetN > 0:
			art, err := fleetStudy(*fleetN, *workers, *shards, *reps)
			if art.Devices == 0 { // the study failed before producing numbers
				return err
			}
			return writeArtifact(outPath("fleet"), art, err)
		}
		all := !*micro && !*antutuOnly && !*energy

		if all || *micro {
			microReps := *reps
			if microReps == 0 {
				microReps = microbench.DefaultReps
			}
			r, err := experiments.Fig10WithReps(microReps)
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
// wall time, the same noise control the overhead studies use — a single
// ~30 ms run is at the mercy of scheduler luck, which is exactly what
// the benchcmp regression gate must not be.
const defaultFleetReps = 3

// fleetSeed is the fleet studies' root seed; per-device seeds derive
// from it.
const fleetSeed = 42

// fleetStudy runs the stealth-attack fleet serially and with the
// requested worker and shard counts (reps times each, keeping the
// minimum wall time and allocation delta), prints the aggregate, checks
// the renders match byte for byte across both legs, and enforces the
// determinism and (when the host has the CPUs for it) speedup gates.
// The fleet runs the streaming path — no per-device Results are
// retained — so the allocation delta is exactly the churn the
// bytes/device budget gates. The artifact is returned even when a gate
// fails so callers can still record the numbers.
func fleetStudy(devices, workers, shards, reps int) (fleetArtifact, error) {
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
			fr, err := experiments.FleetBenchStudy(devices, w, s, fleetSeed)
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
		Seed:                 fleetSeed,
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
func fleetMemStudy(devices, workers int) error {
	pop := population.Default()
	spec, err := pop.FleetSpec(devices, workers, 0, fleetSeed)
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

// overheadResult is what the shared path reads from an overhead
// study's result; the result itself is the study's BENCH_<name>.json
// artifact.
type overheadResult interface {
	Render() string
	Gates() []experiments.Gate
	Sanity() error
}

// overhead is one of the four overhead studies.
type overhead[R overheadResult] struct {
	name    string
	measure func(reps int) (R, error)
	// attempts bounds the best-of-N retry of the gates. The off-path
	// statistics sit near their 1% threshold (a true cost of ~0.5%), so
	// one drifty attempt must not fail CI; the best attempt is the
	// noise-floor estimate, the same rationale as min-over-reps wall
	// times. The checker's gate has real headroom and gets one attempt.
	attempts int
	// leg is the configuration benchcmp holds against the baseline;
	// walls reads a result's reps and the two legs' wall times.
	leg   string
	walls func(R) (reps int, baseMS, legMS float64)
}

var (
	telemetryStudy = overhead[*experiments.TelemetryOverheadResult]{
		"telemetry", experiments.TelemetryOverheadStudy, 3, "enabled",
		func(r *experiments.TelemetryOverheadResult) (int, float64, float64) {
			return r.Reps, r.BaselineMS, r.EnabledMS
		},
	}
	checkStudy = overhead[*experiments.CheckOverheadResult]{
		"check", experiments.CheckOverheadStudy, 1, "enabled",
		func(r *experiments.CheckOverheadResult) (int, float64, float64) {
			return r.Reps, r.BaselineMS, r.EnabledMS
		},
	}
	obsvStudy = overhead[*experiments.ObsvOverheadResult]{
		"obsv", experiments.ObsvOverheadStudy, 3, "enabled",
		func(r *experiments.ObsvOverheadResult) (int, float64, float64) {
			return r.Reps, r.BaselineMS, r.EnabledMS
		},
	}
	traceStudy = overhead[*experiments.TraceOverheadResult]{
		"trace", experiments.TraceOverheadStudy, 3, "full",
		func(r *experiments.TraceOverheadResult) (int, float64, float64) {
			return r.Reps, r.BaselineMS, r.FullMS
		},
	}
)

// gateScore is a result's worst gate statistic, each normalized by its
// threshold so one number ranks attempts across gates (<= 1 means all
// pass).
func gateScore(r overheadResult) float64 {
	score := math.Inf(-1)
	for _, g := range r.Gates() {
		score = math.Max(score, g.Pct/g.Max)
	}
	return score
}

func gatesLine(r overheadResult) string {
	var parts []string
	for _, g := range r.Gates() {
		parts = append(parts, g.String())
	}
	return strings.Join(parts, ", ")
}

// run measures the study up to s.attempts times, keeping the attempt
// with the best gate score, prints it and checks its sanity and gates.
// ok is false when no attempt produced numbers; otherwise the result is
// returned even when a check fails, so its artifact records the numbers.
func (s overhead[R]) run(reps int) (res R, ok bool, err error) {
	for attempt := 1; attempt <= s.attempts; attempt++ {
		r, err := s.measure(reps)
		if err != nil {
			return res, false, err
		}
		if !ok || gateScore(r) < gateScore(res) {
			res, ok = r, true
		}
		if gateScore(res) <= 1 {
			break
		}
		if attempt < s.attempts {
			fmt.Printf("%s gate attempt %d/%d: %s, retrying\n", s.name, attempt, s.attempts, gatesLine(r))
		}
	}
	fmt.Println(res.Render())
	fmt.Println("gates:", gatesLine(res))
	if err := res.Sanity(); err != nil {
		return res, true, err
	}
	if gateScore(res) > 1 {
		return res, true, fmt.Errorf("%s overhead gate failed (%s)", s.name, gatesLine(res))
	}
	return res, true, nil
}

// bench runs the study and records it at outPath.
func (s overhead[R]) bench(reps int, outPath string) error {
	res, ok, err := s.run(reps)
	if !ok {
		return err
	}
	return writeArtifact(outPath, res, err)
}

// compare reruns the study at its committed artifact's reps and reports
// the baseline and leg wall times against the committed ones.
func (s overhead[R]) compare(row rowFunc) error {
	var old R
	if err := readArtifact("BENCH_"+s.name+".json", &old); err != nil {
		return err
	}
	reps, oldBase, oldLeg := s.walls(old)
	fresh, ok, err := s.run(reps)
	if ok {
		_, base, leg := s.walls(fresh)
		row(s.name+"/baseline", "ms", base, oldBase)
		row(s.name+"/"+s.leg, "ms", leg, oldLeg)
	}
	return err
}

// writeArtifact records a study's artifact at path (empty = don't
// write) and passes its gate error on: the artifact is written even
// when a gate failed, so the numbers are kept.
func writeArtifact(path string, art any, gateErr error) error {
	if path == "" {
		return gateErr
	}
	blob, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return gateErr
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

// rowFunc reports one benchcmp comparison: a fresh measurement against
// its committed value.
type rowFunc func(name, unit string, fresh, committed float64)

// fleetCompare reruns the fleet study at the committed artifact's shape.
func fleetCompare(row rowFunc) error {
	var old fleetArtifact
	if err := readArtifact("BENCH_fleet.json", &old); err != nil {
		return err
	}
	if len(old.Runs) == 0 {
		return fmt.Errorf("benchcmp: BENCH_fleet.json has no runs")
	}
	last := old.Runs[len(old.Runs)-1]
	fresh, err := fleetStudy(old.Devices, last.Workers, last.Shards, defaultFleetReps)
	for _, nr := range fresh.Runs {
		for _, or := range old.Runs {
			if or.Workers == nr.Workers {
				row(fmt.Sprintf("fleet/%dworkers", nr.Workers), "ms", nr.WallMS, or.WallMS)
			}
		}
	}
	// The memory budget is a first-class gate: streaming keeps the
	// per-device allocation churn flat, and a >15% creep here is a
	// regression even when the wall clock still passes.
	row("fleet/bytes_per_device", "B", fresh.BytesPerDevice, old.BytesPerDevice)
	return err
}

// benchCompare reruns every study at the shape recorded in its
// committed BENCH_*.json artifact and fails when any wall-clock number
// regressed by more than benchRegressionPct. The committed files are
// not rewritten — this is the CI regression gate, not the regeneration
// path.
func benchCompare() error {
	var regressions []string
	row := func(name, unit string, fresh, committed float64) {
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
	// Every study runs and prints even when an earlier one fails (a
	// gate the host cannot meet, say); their errors are returned
	// together with the regressions at the end.
	var failed []error
	for _, st := range []struct {
		name    string
		compare func(rowFunc) error
	}{
		{"fleet", fleetCompare},
		{"telemetry", telemetryStudy.compare},
		{"check", checkStudy.compare},
		{"obsv", obsvStudy.compare},
		{"trace", traceStudy.compare},
		{"corpus", corpusCompare},
		{"jobs", jobsCompare},
	} {
		if err := st.compare(row); err != nil {
			fmt.Printf("benchcmp: %s study failed: %v\n", st.name, err)
			failed = append(failed, fmt.Errorf("%s: %w", st.name, err))
		}
	}
	if len(regressions) > 0 {
		failed = append(failed, fmt.Errorf("benchcmp: %d wall-clock regression(s):\n  %s",
			len(regressions), strings.Join(regressions, "\n  ")))
	}
	if len(failed) > 0 {
		return errors.Join(failed...)
	}
	fmt.Println("benchcmp: no wall-clock regressions")
	return nil
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
	if math.Abs(with-without) >= 1e-9 {
		fmt.Printf("  DIFFER by %.3g J\n", with-without)
		return fmt.Errorf("energy parity failed: scene #1 drains %.3f J with E-Android, %.3f J without", with, without)
	}
	fmt.Println("  identical — E-Android draws nothing extra outside collateral events")
	return nil
}
