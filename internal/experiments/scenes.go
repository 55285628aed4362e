package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/accounting"
	"repro/internal/app"
	"repro/internal/batteryui"
	"repro/internal/device"
	"repro/internal/power"
	"repro/internal/scenario"
)

// ViewsResult holds the baseline ("Android") and revised ("E-Android")
// views for one scenario run plus the key attributed energies, in
// joules.
type ViewsResult struct {
	Name         string
	AndroidView  string
	EAndroidView string
	// AndroidJ is baseline-attributed energy per label.
	AndroidJ map[string]float64
	// EAndroidTotalJ is total (original + collateral) per label.
	EAndroidTotalJ map[string]float64
}

// Render prints both views side by side, like the paired bars of
// Figure 9.
func (r *ViewsResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s ===\n", r.Name)
	b.WriteString("--- Android (baseline interface; 'A' bars) ---\n")
	b.WriteString(r.AndroidView)
	b.WriteString("--- E-Android (revised interface; 'E' bars, '+' = collateral) ---\n")
	b.WriteString(r.EAndroidView)
	return b.String()
}

// viewsFrom snapshots both interfaces of a world after a scenario run.
func viewsFrom(name string, w *scenario.World) *ViewsResult {
	w.Dev.Flush()
	res := &ViewsResult{
		Name:           name,
		AndroidView:    w.Dev.AndroidView(),
		EAndroidView:   w.Dev.EAndroidView(),
		AndroidJ:       make(map[string]float64),
		EAndroidTotalJ: make(map[string]float64),
	}
	for _, e := range w.Dev.Android.Entries() {
		res.AndroidJ[w.Dev.Packages.Label(e.UID)] = e.TotalJ
	}
	for _, row := range batteryui.EAndroidRows(w.Dev.Packages, w.Dev.Android, w.Dev.EAndroid) {
		res.EAndroidTotalJ[row.Label] = row.TotalJ
	}
	return res
}

func newWorld(policy accounting.Policy, opts scenario.WorldOptions) (*scenario.World, error) {
	return scenario.NewWorldWith(device.Config{EAndroid: true, Policy: policy}, opts)
}

// Fig1 regenerates Figure 1: the energy view Android's official
// BatteryStats shows after filming inside the Message app — the Camera
// is charged, the Message barely registers.
func Fig1(opts scenario.WorldOptions) (*ViewsResult, error) {
	w, err := newWorld(accounting.BatteryStats, opts)
	if err != nil {
		return nil, err
	}
	if err := w.Scene1MessageFilm(); err != nil {
		return nil, err
	}
	return viewsFrom("Figure 1: energy view when filming in the Message app", w), nil
}

// Fig9a regenerates Figure 9a (normal scene #1).
func Fig9a(opts scenario.WorldOptions) (*ViewsResult, error) {
	w, err := newWorld(accounting.BatteryStats, opts)
	if err != nil {
		return nil, err
	}
	if err := w.Scene1MessageFilm(); err != nil {
		return nil, err
	}
	return viewsFrom("Figure 9a: Scene #1 (Message films via Camera)", w), nil
}

// Fig9b regenerates Figure 9b (normal scene #2, the legitimate hybrid).
func Fig9b(opts scenario.WorldOptions) (*ViewsResult, error) {
	w, err := newWorld(accounting.BatteryStats, opts)
	if err != nil {
		return nil, err
	}
	if err := w.Scene2ContactsChain(); err != nil {
		return nil, err
	}
	return viewsFrom("Figure 9b: Scene #2 (Contacts -> Message -> Camera)", w), nil
}

// Fig9c regenerates Figure 9c (attack #3: bind without unbind). The
// attack runs for 60 s, then the malware unbinds and the victim runs on
// for another 30 s — whose energy must NOT be charged to the malware.
func Fig9c(opts scenario.WorldOptions) (*ViewsResult, error) {
	w, err := newWorld(accounting.BatteryStats, opts)
	if err != nil {
		return nil, err
	}
	if err := w.ForceScreenOn(); err != nil {
		return nil, err
	}
	if err := w.Attack3ServicePin(60 * time.Second); err != nil {
		return nil, err
	}
	// End the attack: the malicious client dies, link-to-death unbinds.
	w.Malware.Kill()
	if err := w.Dev.Run(30 * time.Second); err != nil {
		return nil, err
	}
	return viewsFrom("Figure 9c: Attack #3 (bind service without unbinding)", w), nil
}

// Fig9d regenerates Figure 9d (attack #4: interrupt to background with
// an unreleased wakelock).
func Fig9d(opts scenario.WorldOptions) (*ViewsResult, error) {
	w, err := newWorld(accounting.BatteryStats, opts)
	if err != nil {
		return nil, err
	}
	if err := w.Attack4InterruptQuit(60 * time.Second); err != nil {
		return nil, err
	}
	return viewsFrom("Figure 9d: Attack #4 (interrupt attacked app to background)", w), nil
}

// PhasedResult is a normal-versus-attack comparison (Figures 9e/9f show
// the normal case in the upper half and the attack in the lower half).
type PhasedResult struct {
	Name   string
	Normal *ViewsResult
	Attack *ViewsResult
}

// Render prints both halves.
func (r *PhasedResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s ===\n", r.Name)
	b.WriteString(">>> normal circumstances (upper half)\n")
	b.WriteString(r.Normal.Render())
	b.WriteString(">>> under attack (lower half)\n")
	b.WriteString(r.Attack.Render())
	return b.String()
}

// Fig9e regenerates Figure 9e (attack #5: brightness escalation).
func Fig9e(opts scenario.WorldOptions) (*PhasedResult, error) {
	// Normal half: the victim runs 60 s at default brightness.
	normal, err := newWorld(accounting.BatteryStats, opts)
	if err != nil {
		return nil, err
	}
	if _, err := normal.Dev.Activities.UserStartApp(scenario.PkgVictim); err != nil {
		return nil, err
	}
	if _, err := normal.Dev.Power.Acquire(normal.Victim.UID, power.ScreenBright, "victim-ui"); err != nil {
		return nil, err
	}
	if err := normal.Dev.Run(60 * time.Second); err != nil {
		return nil, err
	}

	// Attack half: same run, but the malware escalates brightness after
	// the first instant.
	attack, err := newWorld(accounting.BatteryStats, opts)
	if err != nil {
		return nil, err
	}
	if err := attack.Attack5Brightness(0, 60*time.Second); err != nil {
		return nil, err
	}
	return &PhasedResult{
		Name:   "Figure 9e: Attack #5 (drain through screen configuration)",
		Normal: viewsFrom("normal: default brightness, 60 s", normal),
		Attack: viewsFrom("attack: malware escalates brightness to 255", attack),
	}, nil
}

// Fig9f regenerates Figure 9f (attack #6: screen wakelock never
// released). Normal half: screen times out after 30 s of a 60 s window.
// Attack half: malware's wakelock pins the screen for the full 60 s.
func Fig9f(opts scenario.WorldOptions) (*PhasedResult, error) {
	normal, err := newWorld(accounting.BatteryStats, opts)
	if err != nil {
		return nil, err
	}
	if err := normal.Dev.Run(60 * time.Second); err != nil {
		return nil, err
	}

	attack, err := newWorld(accounting.BatteryStats, opts)
	if err != nil {
		return nil, err
	}
	if err := attack.Attack6WakelockScreen(60 * time.Second); err != nil {
		return nil, err
	}
	return &PhasedResult{
		Name:   "Figure 9f: Attack #6 (acquire screen wakelock without releasing)",
		Normal: viewsFrom("normal: auto-lock turns screen off after 30 s", normal),
		Attack: viewsFrom("attack: malware wakelock keeps screen on 60 s", attack),
	}, nil
}

// Fig8 regenerates Figure 8: the per-app breakdowns E-Android's revised
// PowerTutor interface shows after the legitimate hybrid chain (scene
// #2): the Contacts and Message rows each itemize their collateral apps.
type Fig8Result struct {
	Contacts app.UID
	Message  app.UID
	View     string
	Rows     []batteryui.Row
}

// Render prints the revised PowerTutor interface.
func (r *Fig8Result) Render() string {
	return "=== Figure 8: sample view of energy breakdown (revised PowerTutor) ===\n" + r.View
}

// Fig8 runs scene #2 under the PowerTutor policy.
func Fig8(opts scenario.WorldOptions) (*Fig8Result, error) {
	w, err := newWorld(accounting.PowerTutor, opts)
	if err != nil {
		return nil, err
	}
	if err := w.Scene2ContactsChain(); err != nil {
		return nil, err
	}
	w.Dev.Flush()
	return &Fig8Result{
		Contacts: w.Contacts.UID,
		Message:  w.Message.UID,
		View:     w.Dev.EAndroidView(),
		Rows:     batteryui.EAndroidRows(w.Dev.Packages, w.Dev.Android, w.Dev.EAndroid),
	}, nil
}

// Fig9aPowerTutor reruns scene #1 under the PowerTutor policy. The paper
// omits its PowerTutor plots because "the results of PowerTutor are
// similar to those of Android's interface"; this entry regenerates that
// omitted variant so the claim itself is checkable.
func Fig9aPowerTutor(opts scenario.WorldOptions) (*ViewsResult, error) {
	w, err := newWorld(accounting.PowerTutor, opts)
	if err != nil {
		return nil, err
	}
	if err := w.Scene1MessageFilm(); err != nil {
		return nil, err
	}
	return viewsFrom("Figure 9a (PowerTutor variant): Scene #1", w), nil
}
