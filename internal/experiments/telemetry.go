package experiments

import (
	"fmt"
	"strings"

	"repro/internal/telemetry"
)

// Telemetry overhead study — the repro analog of the paper's §VI-C
// overhead evaluation. The paper proves E-Android's instrumentation
// cheap by benchmarking stock Android against the framework-only and
// complete configurations; here the instrumentation under test is the
// telemetry subsystem itself, measured on the stealth workload in three
// configurations:
//
//	baseline: no recorder built (call sites take the nil-check path)
//	disabled: recorder built but gated off (one branch per emission)
//	enabled:  full event + metrics recording
//
// The baseline/disabled gate pair gets five paired rounds per rep; the
// allocation-heavy enabled leg follows in reps rounds of its own (see
// harness.go for the protocol).

// defaultTelemetryReps is the default repetition count.
const defaultTelemetryReps = 12

// TelemetryOverheadResult is the study's outcome and the
// BENCH_telemetry.json schema.
type TelemetryOverheadResult struct {
	Reps int `json:"reps"`
	// BaselineMS, DisabledMS and EnabledMS are min-over-reps wall times.
	BaselineMS float64 `json:"baseline_ms"`
	DisabledMS float64 `json:"disabled_ms"`
	EnabledMS  float64 `json:"enabled_ms"`
	// DisabledPct is the paired interquartile-mean statistic, not the
	// ratio of the min wall times; EnabledPct is the min-over-reps
	// overhead (negative means lost in the noise).
	DisabledPct      float64 `json:"disabled_overhead_pct"`
	EnabledPct       float64 `json:"enabled_overhead_pct"`
	DisabledGatePct  float64 `json:"disabled_gate_pct"`
	EnabledGatePct   float64 `json:"enabled_gate_pct"`
	DisabledGatePass bool    `json:"disabled_gate_pass"`
	EnabledGatePass  bool    `json:"enabled_gate_pass"`
	// EventsRecorded and EventsDropped come from the last enabled run.
	EventsRecorded uint64 `json:"events_recorded"`
	EventsDropped  uint64 `json:"events_dropped"`
}

// Gates lists the study's gates: a disabled recorder within 1% of the
// baseline, an enabled one within 10%.
func (r *TelemetryOverheadResult) Gates() []Gate {
	return []Gate{
		{"disabled", r.DisabledPct, r.DisabledGatePct},
		{"enabled", r.EnabledPct, r.EnabledGatePct},
	}
}

// Sanity has nothing to check beyond the gates.
func (r *TelemetryOverheadResult) Sanity() error { return nil }

// Render prints the study like the paper's overhead tables.
func (r *TelemetryOverheadResult) Render() string {
	var b strings.Builder
	b.WriteString("=== Telemetry overhead study (paper §VI-C analog) ===\n")
	fmt.Fprintf(&b, "workload: stealth attack + 1 Hz detector, %v horizon, %d reps (paired gate; min wall times)\n",
		overheadHorizon, r.Reps)
	fmt.Fprintf(&b, "  baseline (no recorder):  %10.3f ms\n", r.BaselineMS)
	fmt.Fprintf(&b, "  disabled recorder:       %10.3f ms  (%+.2f%%)\n", r.DisabledMS, r.DisabledPct)
	fmt.Fprintf(&b, "  enabled recorder:        %10.3f ms  (%+.2f%%)\n", r.EnabledMS, r.EnabledPct)
	fmt.Fprintf(&b, "  events recorded: %d (%d overwritten by the ring)\n", r.EventsRecorded, r.EventsDropped)
	return b.String()
}

// TelemetryOverheadStudy measures the telemetry subsystem's cost in the
// three configurations over reps repetitions (0 means the default, 12).
func TelemetryOverheadStudy(reps int) (*TelemetryOverheadResult, error) {
	if reps <= 0 {
		reps = defaultTelemetryReps
	}
	res := &TelemetryOverheadResult{Reps: reps, DisabledGatePct: offGatePct, EnabledGatePct: onGatePct}
	base := &leg{run: func() error {
		_, err := stealthRun(nil, nil, nil)
		return err
	}}
	disabled := &leg{run: func() error {
		_, err := stealthRun(telemetry.New(telemetry.Options{Disabled: true}), nil, nil)
		return err
	}}
	var rec *telemetry.Recorder
	enabled := &leg{
		prep: func() { rec = telemetry.New(telemetry.Options{}) },
		run: func() error {
			_, err := stealthRun(rec, nil, nil)
			res.EventsRecorded, res.EventsDropped = rec.Total(), rec.Dropped()
			return err
		},
	}
	if err := timeRotations(rotation{5 * reps, []*leg{base, disabled}}, rotation{reps, []*leg{enabled}}); err != nil {
		return nil, err
	}
	res.BaselineMS, res.DisabledMS, res.EnabledMS = minMS(base.ms), minMS(disabled.ms), minMS(enabled.ms)
	res.DisabledPct = pairedIQM(base.ms, disabled.ms)
	res.EnabledPct = overheadPct(res.EnabledMS, res.BaselineMS)
	res.DisabledGatePass = res.DisabledPct <= res.DisabledGatePct
	res.EnabledGatePass = res.EnabledPct <= res.EnabledGatePct
	return res, nil
}
