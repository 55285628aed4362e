package experiments

import (
	"fmt"
	"strings"

	"repro/internal/check"
)

// Check overhead study — the invariant checker's counterpart to the
// telemetry study, and the same shape as the paper's §VI-C argument: a
// correctness subsystem only earns an always-on default if its cost is
// measured and bounded. Three configurations of the stealth workload:
//
//	baseline:     no checker built (sinks and hooks never see it)
//	enabled:      passive invariant families 1-4 on every interval
//	differential: families 1-4 plus the shadow SampledAccountant
//
// All three rotate through reps rounds (see harness.go); the gate holds
// the enabled configuration within 5% of baseline. The differential
// oracle adds a 1 Hz ticker to the event stream, so its cost is
// reported but not gated — it is an opt-in debugging tool, not a
// default.

// defaultCheckReps is the default repetition count, a multiple of three
// for the rotating schedule.
const defaultCheckReps = 6

// CheckOverheadResult is the study's outcome and the BENCH_check.json
// schema: the measured floors plus the violation counts of the checked
// runs (all expected to be zero — a nonzero count here means the
// simulator itself is broken).
type CheckOverheadResult struct {
	Reps int `json:"reps"`
	// BaselineMS, EnabledMS and DifferentialMS are min-over-reps wall
	// times; the percentages are overheads over BaselineMS.
	BaselineMS      float64 `json:"baseline_ms"`
	EnabledMS       float64 `json:"enabled_ms"`
	DifferentialMS  float64 `json:"differential_ms"`
	EnabledPct      float64 `json:"enabled_overhead_pct"`
	DifferentialPct float64 `json:"differential_overhead_pct"`
	EnabledGatePct  float64 `json:"enabled_gate_pct"`
	EnabledGatePass bool    `json:"enabled_gate_pass"`
	// EnabledViolations and DifferentialViolations come from the last
	// run of each checked configuration.
	EnabledViolations      int `json:"enabled_violations"`
	DifferentialViolations int `json:"differential_violations"`
}

// Gates lists the study's one gate: passive checks within 5%.
func (r *CheckOverheadResult) Gates() []Gate {
	return []Gate{{"enabled", r.EnabledPct, r.EnabledGatePct}}
}

// Sanity fails on any violation: the study doubles as a long-horizon
// invariant sweep.
func (r *CheckOverheadResult) Sanity() error {
	if r.EnabledViolations != 0 || r.DifferentialViolations != 0 {
		return fmt.Errorf("checker found %d passive / %d differential violations during the overhead study",
			r.EnabledViolations, r.DifferentialViolations)
	}
	return nil
}

// Render prints the study like the paper's overhead tables.
func (r *CheckOverheadResult) Render() string {
	var b strings.Builder
	b.WriteString("=== Invariant checker overhead study ===\n")
	fmt.Fprintf(&b, "workload: stealth attack + 1 Hz detector, %v horizon, %d reps (min wall time)\n",
		overheadHorizon, r.Reps)
	fmt.Fprintf(&b, "  baseline (no checker):   %10.3f ms\n", r.BaselineMS)
	fmt.Fprintf(&b, "  passive checks (1-4):    %10.3f ms  (%+.2f%%)\n", r.EnabledMS, r.EnabledPct)
	fmt.Fprintf(&b, "  + differential oracle:   %10.3f ms  (%+.2f%%)\n", r.DifferentialMS, r.DifferentialPct)
	fmt.Fprintf(&b, "  violations: passive %d, differential %d\n", r.EnabledViolations, r.DifferentialViolations)
	return b.String()
}

// CheckOverheadStudy measures the invariant checker's cost in the three
// configurations over reps repetitions (0 means the default, 6).
//
// The baseline uses Options{Disabled: true} rather than a nil Checks so
// the study stays a clean A/B even when EANDROID_CHECK is set in the
// environment (a nil config would silently pick up env-driven checks).
func CheckOverheadStudy(reps int) (*CheckOverheadResult, error) {
	if reps <= 0 {
		reps = defaultCheckReps
	}
	res := &CheckOverheadResult{Reps: reps, EnabledGatePct: checkGatePct}
	checked := func(opts check.Options, violations *int) *leg {
		return &leg{run: func() error {
			dev, err := stealthRun(nil, &opts, nil)
			if err != nil {
				return err
			}
			n := len(dev.FinishChecks())
			if violations != nil {
				*violations = n
			}
			return nil
		}}
	}
	base := checked(check.Options{Disabled: true}, nil)
	enabled := checked(check.Options{}, &res.EnabledViolations)
	differential := checked(check.Options{Differential: true}, &res.DifferentialViolations)
	if err := timeRotations(rotation{reps, []*leg{base, enabled, differential}}); err != nil {
		return nil, err
	}
	res.BaselineMS, res.EnabledMS, res.DifferentialMS = minMS(base.ms), minMS(enabled.ms), minMS(differential.ms)
	res.EnabledPct = overheadPct(res.EnabledMS, res.BaselineMS)
	res.DifferentialPct = overheadPct(res.DifferentialMS, res.BaselineMS)
	res.EnabledGatePass = res.EnabledPct <= res.EnabledGatePct
	return res, nil
}
