package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/accounting"
	"repro/internal/device"
	"repro/internal/obsv"
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

// Obsv overhead study — the cost of the observability plane on the
// stealth workload, in three configurations:
//
//	baseline: no recorder, no obsv (the nil-check path)
//	disabled: recorder built gated-off, obsv server built but never
//	          started, no watchdog, no flame sink — the "compiled in,
//	          turned off" path every uninstrumented run pays
//	enabled:  enabled recorder + started watchdog + flame collector
//
// The hard gate rides on the disabled configuration: the observability
// plane must cost ≤1% when it is off. The baseline/disabled pair gets
// five paired rounds per rep; the enabled leg follows in reps rounds of
// its own, because full interval materialization for the flame sink
// makes it allocation-heavy enough to perturb whichever leg runs next
// (see harness.go for the protocol).

// defaultObsvReps is the default repetition count.
const defaultObsvReps = 12

// ObsvOverheadResult is the study's outcome and the BENCH_obsv.json
// schema.
type ObsvOverheadResult struct {
	Reps int `json:"reps"`
	// BaselineMS, DisabledMS and EnabledMS are min-over-reps wall times.
	BaselineMS float64 `json:"baseline_ms"`
	DisabledMS float64 `json:"disabled_ms"`
	EnabledMS  float64 `json:"enabled_ms"`
	// DisabledPct is the paired interquartile-mean statistic, not the
	// ratio of the min wall times; EnabledPct is the min-over-reps
	// overhead, reported but not gated — it rides on an enabled
	// recorder, whose own 10% gate is the telemetry study's.
	DisabledPct      float64 `json:"disabled_overhead_pct"`
	EnabledPct       float64 `json:"enabled_overhead_pct"`
	DisabledGatePct  float64 `json:"disabled_gate_pct"`
	DisabledGatePass bool    `json:"disabled_gate_pass"`
	// Findings and FlameStacks come from the last enabled run
	// (deterministic: seeded, single-threaded).
	Findings    int `json:"findings"`
	FlameStacks int `json:"flame_stacks"`
}

// Gates lists the study's one gate: obsv off within 1%.
func (r *ObsvOverheadResult) Gates() []Gate {
	return []Gate{{"disabled", r.DisabledPct, r.DisabledGatePct}}
}

// Sanity fails when the enabled run saw nothing: a stealth attack under
// a live watchdog that yields no finding, or an empty flame, is a
// broken plane, not a fast one.
func (r *ObsvOverheadResult) Sanity() error {
	if r.Findings == 0 || r.FlameStacks == 0 {
		return fmt.Errorf("obsv study sanity failed: %d findings, %d flame stacks from a stealth-attack run",
			r.Findings, r.FlameStacks)
	}
	return nil
}

// Render prints the study.
func (r *ObsvOverheadResult) Render() string {
	var b strings.Builder
	b.WriteString("=== Observability overhead study ===\n")
	fmt.Fprintf(&b, "workload: stealth attack + 1 Hz detector, %v horizon, %d reps (paired gate; min wall times)\n",
		overheadHorizon, r.Reps)
	fmt.Fprintf(&b, "  baseline (no obsv):        %10.3f ms\n", r.BaselineMS)
	fmt.Fprintf(&b, "  obsv off (server unused):  %10.3f ms  (%+.2f%%)\n", r.DisabledMS, r.DisabledPct)
	fmt.Fprintf(&b, "  obsv on (watchdog+flame):  %10.3f ms  (%+.2f%%)\n", r.EnabledMS, r.EnabledPct)
	fmt.Fprintf(&b, "  last enabled run: %d findings, %d flame stacks\n", r.Findings, r.FlameStacks)
	return b.String()
}

// ObsvOverheadStudy measures the observability plane's cost over reps
// repetitions (0 means the default, 12).
func ObsvOverheadStudy(reps int) (*ObsvOverheadResult, error) {
	if reps <= 0 {
		reps = defaultObsvReps
	}
	res := &ObsvOverheadResult{Reps: reps, DisabledGatePct: offGatePct}
	base := &leg{run: func() error {
		_, err := stealthRun(nil, nil, nil)
		return err
	}}
	disabled := &leg{run: func() error {
		rec := telemetry.New(telemetry.Options{Disabled: true})
		_ = obsv.NewServer() // built, never started: the off path
		_, err := stealthRun(rec, nil, nil)
		return err
	}}
	enabled := &leg{run: func() error {
		var wd *obsv.Watchdog
		var fc *obsv.FlameCollector
		_, err := stealthRun(telemetry.New(telemetry.Options{}), nil, func(dev *device.Device) error {
			var err error
			if wd, err = obsv.NewWatchdog(dev, obsv.WatchdogOptions{}); err != nil {
				return err
			}
			wd.Start()
			fc = obsv.AttachFlame(dev)
			return nil
		})
		if err != nil {
			return err
		}
		res.Findings = len(wd.Finish())
		res.FlameStacks = len(fc.Fold().Stacks)
		return nil
	}}
	if err := timeRotations(rotation{5 * reps, []*leg{base, disabled}}, rotation{reps, []*leg{enabled}}); err != nil {
		return nil, err
	}
	res.BaselineMS, res.DisabledMS, res.EnabledMS = minMS(base.ms), minMS(disabled.ms), minMS(enabled.ms)
	res.DisabledPct = pairedIQM(base.ms, disabled.ms)
	res.EnabledPct = overheadPct(res.EnabledMS, res.BaselineMS)
	res.DisabledGatePass = res.DisabledPct <= res.DisabledGatePct
	return res, nil
}
