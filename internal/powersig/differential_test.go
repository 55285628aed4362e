package powersig_test

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/hw"
	"repro/internal/manifest"
	"repro/internal/powersig"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// refSampler is the reference the detector's running moments are
// checked against: it stores every raw sample of every non-system app,
// taken app by app through InstantAppPowerMW on a real 1 Hz Ticker,
// and summarizes them with a textbook two-pass mean and variance.
type refSampler struct {
	meter  *hw.Meter
	pm     *app.PackageManager
	traces map[app.UID][]float64
	sigs   map[app.UID]powersig.Signature
}

func (r *refSampler) tick() {
	r.pm.EachApp(func(a *app.App) {
		if !a.System && app.Slot(a.UID) >= 0 {
			r.traces[a.UID] = append(r.traces[a.UID], r.meter.InstantAppPowerMW(a.UID))
		}
	})
}

func twoPass(uid app.UID, xs []float64) powersig.Signature {
	var sum, peak float64
	for _, v := range xs {
		sum += v
		peak = math.Max(peak, v)
	}
	mean := sum / float64(len(xs))
	var varsum float64
	for _, v := range xs {
		varsum += (v - mean) * (v - mean)
	}
	return powersig.Signature{UID: uid, MeanMW: mean, StdMW: math.Sqrt(varsum / float64(len(xs))),
		PeakMW: peak, Samples: len(xs)}
}

// window summarizes the traces since the last train, sorted by UID.
func (r *refSampler) window() []powersig.Signature {
	var out []powersig.Signature
	for _, uid := range sortedUIDs(r.traces) {
		out = append(out, twoPass(uid, r.traces[uid]))
	}
	return out
}

func sortedUIDs[V any](m map[app.UID]V) []app.UID {
	uids := make([]app.UID, 0, len(m))
	for uid := range m {
		uids = append(uids, uid)
	}
	slices.Sort(uids)
	return uids
}

func (r *refSampler) train() {
	for _, sig := range r.window() {
		r.sigs[sig.UID] = sig
	}
	r.traces = map[app.UID][]float64{}
}

// classify applies the detector's documented rule (live mean beyond
// max(mean+3σ+25 mW, 2×peak) of the trained profile) to the reference
// summaries.
func (r *refSampler) classify() []powersig.Verdict {
	var out []powersig.Verdict
	for _, live := range r.window() {
		sig := r.sigs[live.UID]
		threshold := math.Max(sig.MeanMW+3*sig.StdMW+25, 2*sig.PeakMW)
		out = append(out, powersig.Verdict{UID: live.UID, Anomalous: live.MeanMW > threshold,
			LiveMeanMW: live.MeanMW, TrainedMeanMW: sig.MeanMW})
	}
	return out
}

// stdClose accepts a one-pass std within 1e-9 of the two-pass one,
// relative to the larger of the std and the mean: for a constant trace
// the two-pass std is itself rounding noise on the mean's scale.
func stdClose(got, want powersig.Signature) bool {
	return math.Abs(got.StdMW-want.StdMW) <= 1e-9*math.Max(want.StdMW, math.Abs(want.MeanMW))
}

func checkWindow(t *testing.T, stage string, d *powersig.Detector, ref *refSampler) {
	t.Helper()
	for uid, xs := range ref.traces {
		if got := d.TraceLen(uid); got != len(xs) {
			t.Errorf("%s: TraceLen(%d) = %d, reference holds %d samples", stage, uid, got, len(xs))
		}
	}
}

// refRig pairs a detector with the reference sampler on one world:
// start and stop drive both, so the reference's real 1 Hz Ticker and
// the detector's lazy ticks always share a phase.
type refRig struct {
	t      *testing.T
	w      *scenario.World
	d      *powersig.Detector
	ref    *refSampler
	ticker *sim.Ticker
}

func (r *refRig) start() {
	r.d.Start()
	if r.ticker == nil {
		r.ticker = r.w.Dev.Engine.Every(time.Second, "test.ref-sample", r.ref.tick)
	}
}

func (r *refRig) stop() {
	r.d.Stop()
	if r.ticker != nil {
		r.ticker.Stop()
		r.ticker = nil
	}
}

// runUntil runs the engine to an absolute instant and compares the
// trace lengths there, folding the detector between slices.
func (r *refRig) runUntil(at time.Duration) error {
	if err := r.w.Dev.Engine.RunUntil(sim.Time(at)); err != nil {
		return err
	}
	checkWindow(r.t, fmt.Sprintf("slice end %v", at), r.d, r.ref)
	return nil
}

// at schedules fn at an absolute instant.
func (r *refRig) at(when time.Duration, fn func()) {
	r.w.Dev.Engine.Schedule(sim.Time(when), "test.change", fn)
}

// setCPU returns an event that sets the victim's CPU share.
func (r *refRig) setCPU(util float64) func() {
	return func() { r.w.Dev.Meter.SetCPUUtil(r.w.Victim.UID, util) }
}

func (r *refRig) must(err error) {
	if err != nil {
		r.t.Fatal(err)
	}
}

func TestMomentsMatchTwoPassReference(t *testing.T) {
	benign := func(w *scenario.World) error {
		if _, err := w.Dev.Activities.UserStartApp(scenario.PkgVictim); err != nil {
			return err
		}
		if err := w.Dev.Run(30 * time.Second); err != nil {
			return err
		}
		w.Dev.Activities.Home(app.UIDSystem)
		return w.Dev.Run(30 * time.Second)
	}
	withBomber := func(w *scenario.World) error {
		if _, err := w.InstallClassicBomber(); err != nil {
			return err
		}
		return benign(w)
	}
	screenOn := func(attack func(w *scenario.World) error) func(w *scenario.World) error {
		return func(w *scenario.World) error {
			if err := w.ForceScreenOn(); err != nil {
				return err
			}
			return attack(w)
		}
	}
	const dur = 60 * time.Second
	const P = time.Second
	cases := []struct {
		name          string
		train, detect func(w *scenario.World) error
		// script, when set, replaces train: it drives the rig itself
		// (meter changes on and between tick instants, stops and
		// restarts, slices checked at their ends).
		script func(r *refRig) error
	}{
		{name: "classic-cpu-bomb", train: withBomber, detect: func(w *scenario.World) error { return w.ClassicCPUBomb(dur) }},
		{name: "classic-network-bomb", train: withBomber, detect: func(w *scenario.World) error { return w.ClassicNetworkBomb(dur) }},
		{name: "classic-animated-gif", train: withBomber, detect: func(w *scenario.World) error { return w.ClassicAnimatedGIF(dur) }},
		{name: "attack1-component-hijack", train: benign, detect: screenOn(func(w *scenario.World) error { return w.Attack1ComponentHijack(dur) })},
		{name: "attack2-background-apps", train: benign, detect: screenOn(func(w *scenario.World) error { return w.Attack2BackgroundApps(dur) })},
		{name: "attack3-service-pin", train: benign, detect: screenOn(func(w *scenario.World) error { return w.Attack3ServicePin(dur) })},
		{name: "attack4-interrupt-quit", train: benign, detect: screenOn(func(w *scenario.World) error { return w.Attack4InterruptQuit(dur) })},
		{name: "attack5-brightness", train: benign, detect: func(w *scenario.World) error { return w.Attack5Brightness(dur/2, dur/2) }},
		{name: "attack6-wakelock-screen", train: benign, detect: func(w *scenario.World) error { return w.Attack6WakelockScreen(dur) }},
		{name: "scene1-message-film", train: benign, detect: func(w *scenario.World) error { return w.Scene1MessageFilm() }},
		{name: "scene2-contacts-chain", train: benign, detect: func(w *scenario.World) error { return w.Scene2ContactsChain() }},
		{name: "census-change", train: func(w *scenario.World) error {
			// An app arrives halfway through training...
			if err := w.Dev.Run(20 * time.Second); err != nil {
				return err
			}
			if _, err := w.InstallClassicBomber(); err != nil {
				return err
			}
			return benign(w)
		}, detect: func(w *scenario.World) error {
			// ...and a trained one leaves halfway through detection.
			if err := w.Dev.Run(20 * time.Second); err != nil {
				return err
			}
			if err := w.Dev.Packages.Uninstall(scenario.PkgVictim); err != nil {
				return err
			}
			return w.ClassicCPUBomb(dur)
		}},
		{name: "change-on-tick", script: func(r *refRig) error {
			e := r.w.Dev.Engine
			// Scheduled 5 P ahead, so ordered before the 5 s tick.
			r.at(5*P, r.setCPU(0.6))
			// Exactly P ahead, from an event ordered before the 7 s
			// tick: lands before the 8 s tick.
			r.at(7*P, func() { e.After(P, "test.exact", r.setCPU(0.3)) })
			// Through a zero-delay chain started on the 10 s instant.
			r.at(10*P, func() { e.After(0, "test.c1", func() { e.After(0, "test.c2", r.setCPU(0.8)) }) })
			if err := r.runUntil(12 * P); err != nil {
				return err
			}
			// Exactly P ahead from the top level, after the 12 s tick
			// fired: lands after the 13 s tick.
			e.After(P, "test.late", r.setCPU(0.45))
			return r.runUntil(20 * P)
		}},
		{name: "two-changes-one-instant", script: func(r *refRig) error {
			// The first change is ordered before the 15 s tick, the
			// second (scheduled after the 14 s tick fired) after it.
			r.at(15*P, r.setCPU(0.2))
			r.at(14*P+P/2, func() { r.at(15*P, r.setCPU(0.9)) })
			return r.runUntil(20 * P)
		}},
		{name: "wifi-tails", script: func(r *refRig) error {
			m, uid := r.w.Dev.Meter, r.w.Victim.UID
			hold := func() { r.must(m.Hold(hw.WiFi, uid)) }
			release := func() { r.must(m.Release(hw.WiFi, uid)) }
			// Released at 20.3 s: the 3 s tail expires between ticks.
			r.at(18*P, hold)
			r.at(20*P+3*P/10, release)
			// A flush after the expiry drops the tail from the meter.
			r.at(25*P+P/2, m.Flush)
			// Released on the 30 s instant: the tail expires on the
			// 33 s tick, which must not count it.
			r.at(28*P, hold)
			r.at(30*P, release)
			return r.runUntil(40 * P)
		}},
		{name: "suspend-resume", script: func(r *refRig) error {
			m := r.w.Dev.Meter
			r.at(3*P, r.setCPU(0.5))
			r.at(10*P+P/4, func() { m.SetSuspended(true) })
			r.at(17*P, func() { m.SetSuspended(false) })
			return r.runUntil(25 * P)
		}},
		{name: "idle-install-uninstall", script: func(r *refRig) error {
			pm := r.w.Dev.Packages
			mf := manifest.NewBuilder("com.example.idle", "Idle").Activity("Main", true).MustBuild()
			// An app that never touches the meter: only the census
			// hooks tell the detector it arrived and left.
			r.at(8*P, func() {
				if _, err := pm.Install(mf); err != nil {
					r.t.Error(err)
				}
			})
			r.at(21*P+P/3, func() { r.must(pm.Uninstall("com.example.idle")) })
			return r.runUntil(30 * P)
		}},
		{name: "restart-off-grid", script: func(r *refRig) error {
			// Start 2.5 s in, stop at 11.7 s, restart at 14.2 s.
			r.stop()
			r.at(P, r.setCPU(0.4))
			if err := r.runUntil(2*P + P/2); err != nil {
				return err
			}
			r.start()
			r.at(6*P+P/2, r.setCPU(0.7))
			if err := r.runUntil(11*P + 7*P/10); err != nil {
				return err
			}
			r.stop()
			r.at(13*P, r.setCPU(0.1))
			if err := r.runUntil(14*P + P/5); err != nil {
				return err
			}
			r.start()
			return r.runUntil(30 * P)
		}},
		{name: "slices-on-and-off-tick", script: func(r *refRig) error {
			r.at(4*P, r.setCPU(0.35))
			r.at(9*P+P/2, r.setCPU(0.65))
			for _, h := range []time.Duration{3 * P, 5*P + P/3, 9 * P, 9*P + P/2, 14 * P} {
				if err := r.runUntil(h); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	flagged := 0
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, d := detectorWorld(t)
			ref := &refSampler{meter: w.Dev.Meter, pm: w.Dev.Packages,
				traces: map[app.UID][]float64{}, sigs: map[app.UID]powersig.Signature{}}
			r := &refRig{t: t, w: w, d: d, ref: ref}
			r.start()
			detect := tc.detect
			if tc.script != nil {
				// A screen wakelock keeps the platform awake, so the
				// script's changes show in the samples.
				if err := w.ForceScreenOn(); err != nil {
					t.Fatal(err)
				}
				if err := tc.script(r); err != nil {
					t.Fatal(err)
				}
				// Detection runs the classic CPU bomb, which the
				// trained profiles flag.
				detect = func(w *scenario.World) error {
					if _, err := w.InstallClassicBomber(); err != nil {
						return err
					}
					return w.ClassicCPUBomb(dur)
				}
			} else if err := tc.train(w); err != nil {
				t.Fatal(err)
			}
			checkWindow(t, "training", d, ref)
			if err := d.Train(); err != nil {
				t.Fatal(err)
			}
			ref.train()
			got, want := d.Signatures(), []powersig.Signature{}
			for _, uid := range sortedUIDs(ref.sigs) {
				want = append(want, ref.sigs[uid])
			}
			if len(got) != len(want) {
				t.Fatalf("%d signatures, reference has %d", len(got), len(want))
			}
			for i := range got {
				g, r := got[i], want[i]
				if g.UID != r.UID || g.Samples != r.Samples || g.MeanMW != r.MeanMW || g.PeakMW != r.PeakMW || !stdClose(g, r) {
					t.Errorf("signature %d = %v, reference %v", i, g, r)
				}
			}

			if err := detect(w); err != nil {
				t.Fatal(err)
			}
			checkWindow(t, "detection", d, ref)
			gotV, wantV := d.Classify(), ref.classify()
			if len(gotV) != len(wantV) {
				t.Fatalf("%d verdicts, reference has %d", len(gotV), len(wantV))
			}
			for i := range gotV {
				if gotV[i] != wantV[i] {
					t.Errorf("verdict %d = %+v, reference %+v", i, gotV[i], wantV[i])
				}
				if gotV[i].Anomalous {
					flagged++
				}
			}
		})
	}
	if flagged == 0 {
		t.Fatal("no case flagged any app: the verdict comparison is vacuous")
	}
}

// A started detector costs the engine nothing between meter changes:
// 300 s of steady state add no queued event and no kernel-log record,
// yet every tick is sampled. The fold a meter change triggers reuses
// the frame scratch and the moment columns, so after warm-up it
// allocates nothing either.
func TestSampleSteadyStateAllocs(t *testing.T) {
	e := sim.NewEngine(1)
	tl := &sim.TraceLog{}
	e.SetTraceLog(tl)
	b, err := hw.NewBattery(1e12)
	if err != nil {
		t.Fatal(err)
	}
	m, err := hw.NewMeter(e.Now, hw.Nexus4(), b)
	if err != nil {
		t.Fatal(err)
	}
	pm := app.NewPackageManager()
	var uid app.UID
	for _, pkg := range []string{"com.a", "com.b", "com.c"} {
		uid = pm.MustInstall(manifest.NewBuilder(pkg, pkg).Activity("Main", true).MustBuild()).UID
		m.SetCPUUtil(uid, 0.25)
	}
	d, err := powersig.NewDetector(e, m, pm, 0)
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	defer d.Stop()
	if err := e.RunFor(300 * time.Second); err != nil {
		t.Fatal(err)
	}
	if q := e.QueueLen(); q != 0 || tl.Total != 0 {
		t.Fatalf("steady state queued %d events and logged %d, want none", q, tl.Total)
	}
	if n := d.TraceLen(uid); n != 300 {
		t.Fatalf("TraceLen = %d after 300 s, want 300", n)
	}

	util := 0.25
	change := func() {
		if err := e.RunFor(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		util = 0.75 - util // alternate 0.25 and 0.5
		m.SetCPUUtil(uid, util)
	}
	change() // warm-up
	if avg := testing.AllocsPerRun(50, change); avg != 0 {
		t.Fatalf("a fold at a meter change allocates %.1f objects, want 0", avg)
	}
	if n := d.TraceLen(uid); n != 300+52*10 {
		t.Fatalf("TraceLen = %d, want %d", n, 300+52*10)
	}
}
