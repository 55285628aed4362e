package experiments

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/accounting"
	"repro/internal/device"
	"repro/internal/obsv"
	"repro/internal/powersig"
	"repro/internal/scenario"
	"repro/internal/telemetry"
)

// Watchdog-vs-attacks study: the live detection counterpart of the
// ext-detection experiment. Where ext-detection compares post-hoc
// detectors, this runs the obsv drain-anomaly watchdog *during* each of
// the paper's six attacks (and both benign scenes) and reports what it
// flagged while the scenario was still in flight — the paper's
// esDiagnose loop as a streaming detector. The expected outcome, which
// the tests assert, is a clean separation: every attack raises at least
// one collateral-divergence finding, both benign scenes raise nothing.
// The discriminator is user absence (see the Watchdog doc): benign
// collateral — Message delegating to the camera — always lands in a
// window the user touched, while every attack sustains its drain
// through the quiet windows after the user walks away.

// WatchdogCase is one scenario's outcome.
type WatchdogCase struct {
	Name string
	// Benign marks the two non-attack scenes.
	Benign bool
	// Findings is the watchdog's output, in detection order.
	Findings []obsv.Finding
	// Flagged reports at least one finding.
	Flagged bool
}

// WatchdogStudyResult is the full study.
type WatchdogStudyResult struct {
	Window time.Duration
	Cases  []WatchdogCase
}

// Render prints the detection table.
func (r *WatchdogStudyResult) Render() string {
	var b strings.Builder
	b.WriteString("=== Watchdog study: streaming drain-anomaly detection vs the six attacks ===\n")
	fmt.Fprintf(&b, "rolling window %v; spike gate %gx baseline (warmup %d windows); divergence gate %gx direct\n",
		r.Window, float64(obsv.DefaultSpikeFactor), obsv.DefaultWarmup, float64(obsv.DefaultDivergenceRatio))
	fmt.Fprintf(&b, "%-28s %-8s %-9s %s\n", "scenario", "kind", "flagged", "signals")
	for _, c := range r.Cases {
		kind := "attack"
		if c.Benign {
			kind = "benign"
		}
		flagged := "no"
		if c.Flagged {
			flagged = fmt.Sprintf("yes (%d)", len(c.Findings))
		}
		fmt.Fprintf(&b, "%-28s %-8s %-9s %s\n", c.Name, kind, flagged, signalSummary(c.Findings))
	}
	return b.String()
}

// signalSummary folds findings into "signal xN" terms, sorted.
func signalSummary(fs []obsv.Finding) string {
	if len(fs) == 0 {
		return "-"
	}
	counts := make(map[string]int)
	for _, f := range fs {
		counts[f.Signal]++
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	terms := make([]string, 0, len(keys))
	for _, k := range keys {
		terms = append(terms, fmt.Sprintf("%s x%d", k, counts[k]))
	}
	return strings.Join(terms, ", ")
}

// watchdogScenarios lists the study's cases in paper order.
func watchdogScenarios() []struct {
	name   string
	benign bool
	run    func(w *scenario.World) error
} {
	return []struct {
		name   string
		benign bool
		run    func(w *scenario.World) error
	}{
		{"scene1-message-film", true, func(w *scenario.World) error { return w.Scene1MessageFilm() }},
		{"scene2-contacts-chain", true, func(w *scenario.World) error { return w.Scene2ContactsChain() }},
		{"attack1-component-hijack", false, func(w *scenario.World) error {
			if err := w.ForceScreenOn(); err != nil {
				return err
			}
			return w.Attack1ComponentHijack(60 * time.Second)
		}},
		{"attack2-background-apps", false, func(w *scenario.World) error {
			if err := w.ForceScreenOn(); err != nil {
				return err
			}
			return w.Attack2BackgroundApps(60 * time.Second)
		}},
		{"attack3-service-pin", false, func(w *scenario.World) error {
			if err := w.ForceScreenOn(); err != nil {
				return err
			}
			return w.Attack3ServicePin(60 * time.Second)
		}},
		{"attack4-interrupt-quit", false, func(w *scenario.World) error {
			return w.Attack4InterruptQuit(60 * time.Second)
		}},
		{"attack5-brightness", false, func(w *scenario.World) error {
			return w.Attack5Brightness(0, 60*time.Second)
		}},
		{"attack6-wakelock-screen", false, func(w *scenario.World) error {
			return w.Attack6WakelockScreen(60 * time.Second)
		}},
	}
}

// WatchdogStudy runs the watchdog over both benign scenes and all six
// attacks.
func WatchdogStudy(opts scenario.WorldOptions) (*WatchdogStudyResult, error) {
	res := &WatchdogStudyResult{Window: obsv.DefaultWindow}
	for _, sc := range watchdogScenarios() {
		w, err := scenario.NewWorldWith(device.Config{
			EAndroid:  true,
			Policy:    accounting.BatteryStats,
			Telemetry: telemetry.New(telemetry.Options{}),
		}, opts)
		if err != nil {
			return nil, err
		}
		wd, err := obsv.NewWatchdog(w.Dev, obsv.WatchdogOptions{})
		if err != nil {
			return nil, err
		}
		wd.Start()
		if err := sc.run(w); err != nil {
			return nil, fmt.Errorf("watchdog study %s: %w", sc.name, err)
		}
		findings := wd.Finish()
		res.Cases = append(res.Cases, WatchdogCase{
			Name:     sc.name,
			Benign:   sc.benign,
			Findings: findings,
			Flagged:  len(findings) > 0,
		})
	}
	return res, nil
}

// Obsv overhead study — the cost of this PR's observability plane on
// the telemetry study's workload (stealth attack + 1 Hz detector over a
// long horizon), with a paired measurement protocol for the gate (see
// ObsvOverheadStudy):
//
//	baseline: no recorder, no obsv (the nil-check path)
//	disabled: recorder built gated-off, obsv server built but never
//	          started, no watchdog, no flame sink — the "compiled in,
//	          turned off" path every uninstrumented run pays
//	enabled:  enabled recorder + started watchdog + flame collector
//
// The hard gate rides on the disabled configuration: the observability
// plane must cost ≤1% when it is off.

// ObsvOverheadHorizon is the virtual horizon each rep simulates (the
// telemetry study's, for comparable per-rep wall times).
const ObsvOverheadHorizon = 32 * time.Hour

// DefaultObsvReps is the default repetition count; the gate pair gets
// five paired draws per rep.
const DefaultObsvReps = 12

// ObsvOverheadResult holds the measured floors plus the artifacts of
// the last enabled run.
type ObsvOverheadResult struct {
	Reps       int
	BaselineMS float64
	DisabledMS float64
	EnabledMS  float64
	// DisabledPct is the gate statistic: the interquartile mean over
	// back-to-back (baseline, disabled) pairs of the pair's wall-time
	// ratio, minus one, in percent. Pairing cancels the slow machine
	// drift that a min-over-reps comparison of two near-identical
	// workloads cannot — a 1% gate needs the estimator's noise well
	// under 1%.
	DisabledPct float64
	// Findings and FlameStacks come from the last enabled run
	// (deterministic: seeded, single-threaded).
	Findings    int
	FlameStacks int
}

// DisabledOverheadPct is the obsv-off overhead vs baseline, percent
// (the paired interquartile-mean statistic, not the ratio of the min
// wall times).
func (r *ObsvOverheadResult) DisabledOverheadPct() float64 { return r.DisabledPct }

// EnabledOverheadPct is the full live-observability overhead vs
// baseline, percent.
func (r *ObsvOverheadResult) EnabledOverheadPct() float64 {
	return overheadPct(r.EnabledMS, r.BaselineMS)
}

// Render prints the study.
func (r *ObsvOverheadResult) Render() string {
	var b strings.Builder
	b.WriteString("=== Observability overhead study ===\n")
	fmt.Fprintf(&b, "workload: stealth attack + 1 Hz detector, %v horizon, %d reps (paired gate; min wall times)\n",
		ObsvOverheadHorizon, r.Reps)
	fmt.Fprintf(&b, "  baseline (no obsv):        %10.3f ms\n", r.BaselineMS)
	fmt.Fprintf(&b, "  obsv off (server unused):  %10.3f ms  (%+.2f%%)\n", r.DisabledMS, r.DisabledOverheadPct())
	fmt.Fprintf(&b, "  obsv on (watchdog+flame):  %10.3f ms  (%+.2f%%)\n", r.EnabledMS, r.EnabledOverheadPct())
	fmt.Fprintf(&b, "  last enabled run: %d findings, %d flame stacks\n", r.Findings, r.FlameStacks)
	return b.String()
}

// obsvWorkload runs one rep. mode: 0 baseline, 1 disabled, 2 enabled.
func obsvWorkload(mode int, res *ObsvOverheadResult) error {
	cfg := worldCfg(accounting.BatteryStats)
	var srv *obsv.Server
	switch mode {
	case 1:
		cfg.Telemetry = telemetry.New(telemetry.Options{Disabled: true})
		srv = obsv.NewServer() // built, never started: the off path
	case 2:
		cfg.Telemetry = telemetry.New(telemetry.Options{})
	}
	w, err := scenario.NewWorld(cfg)
	if err != nil {
		return err
	}
	var wd *obsv.Watchdog
	var fc *obsv.FlameCollector
	if mode == 2 {
		if wd, err = obsv.NewWatchdog(w.Dev, obsv.WatchdogOptions{}); err != nil {
			return err
		}
		wd.Start()
		fc = obsv.AttachFlame(w.Dev)
	}
	det, err := powersig.NewDetector(w.Dev.Engine, w.Dev.Meter, w.Dev.Packages, 0)
	if err != nil {
		return err
	}
	det.Start()
	if err := w.ForceScreenOn(); err != nil {
		return err
	}
	if err := w.StealthAutoLaunch(60 * time.Second); err != nil {
		return err
	}
	if err := w.Dev.Run(ObsvOverheadHorizon); err != nil {
		return err
	}
	if mode == 2 {
		res.Findings = len(wd.Finish())
		res.FlameStacks = len(fc.Fold().Stacks)
	}
	_ = srv
	return nil
}

// ObsvOverheadStudy measures the observability plane's cost over reps
// repetitions (0 means DefaultObsvReps).
//
// Unlike the telemetry study's three-way rotation, the gate pair
// (baseline vs disabled) is timed first, in adjacent alternating pairs,
// and the enabled configuration only afterwards: the enabled runs are
// allocation-heavy enough (full interval materialization for the flame
// sink) that interleaving them perturbs whichever mode runs next, and a
// 1% gate cannot absorb that.
func ObsvOverheadStudy(reps int) (*ObsvOverheadResult, error) {
	if reps <= 0 {
		reps = DefaultObsvReps
	}
	res := &ObsvOverheadResult{Reps: reps}
	minMS := func(dst *float64, d time.Duration) {
		ms := float64(d.Microseconds()) / 1000
		if *dst == 0 || ms < *dst {
			*dst = ms
		}
	}
	gcPct := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPct)
	if err := obsvWorkload(0, res); err != nil { // untimed warmup
		return nil, err
	}
	// The gate pair gets five draws per rep, alternating which mode
	// runs first inside each pair so any run-after penalty cancels.
	gateDsts := []*float64{&res.BaselineMS, &res.DisabledMS}
	ratios := make([]float64, 0, 5*reps)
	for rep := 0; rep < 5*reps; rep++ {
		var ms [2]float64
		for k := 0; k < len(gateDsts); k++ {
			mode := (rep + k) % len(gateDsts)
			runtime.GC()
			start := time.Now()
			if err := obsvWorkload(mode, res); err != nil {
				return nil, err
			}
			d := float64(time.Since(start).Microseconds()) / 1000
			ms[mode] = d
			if dst := gateDsts[mode]; *dst == 0 || d < *dst {
				*dst = d
			}
		}
		ratios = append(ratios, ms[1]/ms[0])
	}
	sort.Float64s(ratios)
	mid := ratios[len(ratios)/4 : len(ratios)-len(ratios)/4]
	var sum float64
	for _, r := range mid {
		sum += r
	}
	res.DisabledPct = (sum/float64(len(mid)) - 1) * 100
	for rep := 0; rep < reps; rep++ {
		runtime.GC()
		start := time.Now()
		if err := obsvWorkload(2, res); err != nil {
			return nil, err
		}
		minMS(&res.EnabledMS, time.Since(start))
	}
	return res, nil
}
