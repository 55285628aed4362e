package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/accounting"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/obsv"
	"repro/internal/powersig"
	"repro/internal/scenario"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Trace overhead study — the cost of the causal span subsystem on a
// traced fleet workload (stealth attack + 1 Hz detector + watchdog per
// device, telemetry on throughout so the only variable is tracing):
//
//	baseline: fleet.Spec.Trace nil — the untraced path, one nil check
//	          per device and per watchdog window
//	disabled: a Config{Disabled:true} tracer threaded through — the
//	          "compiled in, turned off" path every untraced job pays
//	sampled:  head sampling at 1-in-Devices (≈1 device traced)
//	full:     SampleRate 1 — every device carries a DeviceTracer, every
//	          meter flush / watchdog window / kernel batch becomes a span
//
// The hard gates ride on disabled (≤1%, paired interquartile-mean
// statistic — see harness.go for why a 1% gate needs pairing) and
// full (≤10%, min-over-reps).

// traceHorizon is the virtual horizon each device simulates per run:
// long enough that a run's wall time dwarfs scheduler noise.
const traceHorizon = 8 * time.Hour

// traceDevices is the per-run fleet size. Small and serial (Workers=1):
// the study measures per-device tracing cost, not pool scheduling.
const traceDevices = 4

// defaultTraceReps is the default repetition count.
const defaultTraceReps = 8

// TraceOverheadResult is the study's outcome and the BENCH_trace.json
// schema.
type TraceOverheadResult struct {
	Reps int `json:"reps"`
	// BaselineMS, DisabledMS, SampledMS and FullMS are min-over-reps
	// wall times.
	BaselineMS float64 `json:"baseline_ms"`
	DisabledMS float64 `json:"disabled_ms"`
	SampledMS  float64 `json:"sampled_ms"`
	FullMS     float64 `json:"full_ms"`
	// DisabledPct is the paired interquartile-mean statistic; SampledPct
	// (reported, not gated) and FullPct are min-over-reps overheads.
	DisabledPct      float64 `json:"disabled_overhead_pct"`
	SampledPct       float64 `json:"sampled_overhead_pct"`
	FullPct          float64 `json:"full_overhead_pct"`
	DisabledGatePct  float64 `json:"disabled_gate_pct"`
	FullGatePct      float64 `json:"full_gate_pct"`
	DisabledGatePass bool    `json:"disabled_gate_pass"`
	FullGatePass     bool    `json:"full_gate_pass"`
	// Spans and Dropped come from the last full run (deterministic:
	// seeded, serial).
	Spans   int    `json:"spans"`
	Dropped uint64 `json:"dropped_spans"`
}

// Gates lists the study's gates: tracing off within 1% of the
// untraced baseline (every untraced job pays this path), every device
// traced within 10% (the full-fidelity debugging mode).
func (r *TraceOverheadResult) Gates() []Gate {
	return []Gate{
		{"disabled", r.DisabledPct, r.DisabledGatePct},
		{"full", r.FullPct, r.FullGatePct},
	}
}

// Sanity fails when the fully traced fleet collected no spans or
// dropped any.
func (r *TraceOverheadResult) Sanity() error {
	if r.Spans == 0 || r.Dropped != 0 {
		return fmt.Errorf("trace study sanity failed: %d spans, %d dropped from a fully traced fleet",
			r.Spans, r.Dropped)
	}
	return nil
}

// Render prints the study.
func (r *TraceOverheadResult) Render() string {
	var b strings.Builder
	b.WriteString("=== Trace overhead study ===\n")
	fmt.Fprintf(&b, "workload: %d-device fleet, stealth attack + 1 Hz detector + watchdog, %v horizon, %d reps (paired gate; min wall times)\n",
		traceDevices, traceHorizon, r.Reps)
	fmt.Fprintf(&b, "  baseline (no tracer):      %10.3f ms\n", r.BaselineMS)
	fmt.Fprintf(&b, "  trace off (disabled):      %10.3f ms  (%+.2f%%)\n", r.DisabledMS, r.DisabledPct)
	fmt.Fprintf(&b, "  trace sampled (1/%d):       %10.3f ms  (%+.2f%%)\n", traceDevices, r.SampledMS, r.SampledPct)
	fmt.Fprintf(&b, "  trace full (every device): %10.3f ms  (%+.2f%%)\n", r.FullMS, r.FullPct)
	fmt.Fprintf(&b, "  last full run: %d spans, %d dropped\n", r.Spans, r.Dropped)
	return b.String()
}

// traceWorkload runs one traced fleet under tr (nil = untraced).
// Everything but the tracer is held constant — telemetry and the
// watchdog stay on in every leg so the measured delta is tracing alone.
func traceWorkload(tr *trace.Tracer) error {
	var ft *trace.FleetTrace
	if tr != nil {
		ft = tr.Fleet(traceDevices)
	}
	fr, err := fleet.Run(context.Background(), fleet.Spec{
		Devices:   traceDevices,
		Workers:   1,
		Seed:      42,
		Config:    worldCfg(accounting.BatteryStats),
		Telemetry: &telemetry.Options{},
		Trace:     ft,
		Scenario: func(i int, dev *device.Device) error {
			w, err := scenario.Populate(dev)
			if err != nil {
				return err
			}
			wd, err := obsv.NewWatchdog(dev, obsv.WatchdogOptions{})
			if err != nil {
				return err
			}
			wd.Start()
			det, err := powersig.NewDetector(dev.Engine, dev.Meter, dev.Packages, 0)
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
			if err := dev.Run(traceHorizon); err != nil {
				return err
			}
			wd.Finish()
			return nil
		},
	})
	if err != nil {
		return err
	}
	for _, f := range fr.Summary.Failures {
		return fmt.Errorf("trace study device %d: %s", f.Index, f.Err)
	}
	return nil
}

// TraceOverheadStudy measures the tracing cost over reps repetitions
// (0 means the default, 8): the baseline/disabled gate pair in five
// paired rounds per rep, then the sampled and full legs in reps rounds
// each (see harness.go for the protocol).
func TraceOverheadStudy(reps int) (*TraceOverheadResult, error) {
	if reps <= 0 {
		reps = defaultTraceReps
	}
	res := &TraceOverheadResult{Reps: reps, DisabledGatePct: offGatePct, FullGatePct: onGatePct}
	tracer := func(cfg trace.Config) *trace.Tracer { return trace.New("trace-overhead", "bench", cfg) }
	base := &leg{run: func() error { return traceWorkload(nil) }}
	disabled := &leg{run: func() error { return traceWorkload(tracer(trace.Config{Disabled: true})) }}
	sampled := &leg{run: func() error { return traceWorkload(tracer(trace.Config{SampleRate: traceDevices})) }}
	full := &leg{run: func() error {
		tr := tracer(trace.Config{SampleRate: 1})
		if err := traceWorkload(tr); err != nil {
			return err
		}
		tr.Finish()
		res.Spans, res.Dropped = tr.SpanCount(), tr.Dropped()
		return nil
	}}
	if err := timeRotations(rotation{5 * reps, []*leg{base, disabled}},
		rotation{reps, []*leg{sampled}}, rotation{reps, []*leg{full}}); err != nil {
		return nil, err
	}
	res.BaselineMS, res.DisabledMS = minMS(base.ms), minMS(disabled.ms)
	res.SampledMS, res.FullMS = minMS(sampled.ms), minMS(full.ms)
	res.DisabledPct = pairedIQM(base.ms, disabled.ms)
	res.SampledPct = overheadPct(res.SampledMS, res.BaselineMS)
	res.FullPct = overheadPct(res.FullMS, res.BaselineMS)
	res.DisabledGatePass = res.DisabledPct <= res.DisabledGatePct
	res.FullGatePass = res.FullPct <= res.FullGatePct
	return res, nil
}
