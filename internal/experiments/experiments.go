// Package experiments regenerates every table and figure in the paper's
// evaluation: one entry point per experiment, each returning structured
// results plus a textual rendering that mirrors what the paper reports.
// The cmd/ tools print these renderings; the root bench suite runs the
// same entry points under testing.B.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/scenario"
)

// Renderer is anything that can print itself like a paper figure.
type Renderer interface {
	Render() string
}

// Spec describes one runnable experiment. Run threads opts into every
// world the experiment builds; experiments that build no world, and the
// overhead studies (whose baselines must stay uninstrumented), ignore
// them.
type Spec struct {
	ID    string
	Title string
	Run   func(opts scenario.WorldOptions) (Renderer, error)
}

// All returns every experiment in paper order.
func All() []Spec {
	return []Spec{
		{"fig1", "Energy view when filming in the Message app", func(o scenario.WorldOptions) (Renderer, error) { return Fig1(o) }},
		{"fig2", "Collected apps from Google Play (corpus study)", func(scenario.WorldOptions) (Renderer, error) { return Fig2() }},
		{"fig3", "Time lapsed to drain the battery", func(o scenario.WorldOptions) (Renderer, error) { return Fig3(o) }},
		{"fig6", "Multi-collateral attack timeline", func(o scenario.WorldOptions) (Renderer, error) { return Fig6(o) }},
		{"fig7", "Hybrid attack chain", func(o scenario.WorldOptions) (Renderer, error) { return Fig7(o) }},
		{"fig8", "Energy breakdown by E-Android with revised PowerTutor", func(o scenario.WorldOptions) (Renderer, error) { return Fig8(o) }},
		{"fig9a", "Scene #1: Message films via Camera", func(o scenario.WorldOptions) (Renderer, error) { return Fig9a(o) }},
		{"fig9a-pt", "Scene #1 under the PowerTutor policy (omitted in the paper)", func(o scenario.WorldOptions) (Renderer, error) { return Fig9aPowerTutor(o) }},
		{"fig9b", "Scene #2: Contacts -> Message -> Camera", func(o scenario.WorldOptions) (Renderer, error) { return Fig9b(o) }},
		{"fig9c", "Attack #3: bind without unbind", func(o scenario.WorldOptions) (Renderer, error) { return Fig9c(o) }},
		{"fig9d", "Attack #4: interrupt to background", func(o scenario.WorldOptions) (Renderer, error) { return Fig9d(o) }},
		{"fig9e", "Attack #5: brightness escalation", func(o scenario.WorldOptions) (Renderer, error) { return Fig9e(o) }},
		{"fig9f", "Attack #6: unreleased screen wakelock", func(o scenario.WorldOptions) (Renderer, error) { return Fig9f(o) }},
		{"fig10", "Micro benchmark boxplots (Table I ops)", func(scenario.WorldOptions) (Renderer, error) { return Fig10() }},
		{"fig11", "AnTuTu benchmark", func(scenario.WorldOptions) (Renderer, error) { return Fig11() }},
		{"ext-detection", "Extension: battery interface vs power signatures vs E-Android", func(o scenario.WorldOptions) (Renderer, error) { return ExtDetection(o) }},
		{"ext-stealth", "Extension: stealth auto-launch on unlock", func(o scenario.WorldOptions) (Renderer, error) { return ExtStealth(o) }},
		{"ext-fleet", "Extension: fleet-parallel stealth + drain studies", func(scenario.WorldOptions) (Renderer, error) { return ExtFleet() }},
		{"ext-telemetry", "Extension: telemetry overhead study (paper §VI-C analog)", func(scenario.WorldOptions) (Renderer, error) { return TelemetryOverheadStudy(0) }},
		{"ext-obsv", "Extension: live watchdog vs the six attacks", func(o scenario.WorldOptions) (Renderer, error) { return WatchdogStudy(o) }},
		{"ext-corpus", "Extension: generated scenario corpus replay with confidence intervals", func(scenario.WorldOptions) (Renderer, error) { return ExtCorpus() }},
		{"ext-jobs", "Extension: simulation-as-a-service jobs plane with content-addressed cache", func(scenario.WorldOptions) (Renderer, error) { return ExtJobs() }},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Spec, error) {
	for _, s := range All() {
		if s.ID == id {
			return s, nil
		}
	}
	var ids []string
	for _, s := range All() {
		ids = append(ids, s.ID)
	}
	sort.Strings(ids)
	return Spec{}, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(ids, ", "))
}
