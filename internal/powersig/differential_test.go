package powersig_test

import (
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
// taken through the same bulk meter call at the same 1 Hz instants, and
// summarizes them with a textbook two-pass mean and variance.
type refSampler struct {
	meter  *hw.Meter
	pm     *app.PackageManager
	traces map[app.UID][]float64
	sigs   map[app.UID]powersig.Signature
}

func (r *refSampler) tick() {
	var slots []int32
	r.pm.EachApp(func(a *app.App) {
		if s := app.Slot(a.UID); !a.System && s >= 0 {
			slots = append(slots, int32(s))
		}
	})
	vals := make([]float64, len(slots))
	r.meter.AppPowersInto(slots, vals)
	for j, s := range slots {
		uid := app.FromSlot(int(s))
		r.traces[uid] = append(r.traces[uid], vals[j])
	}
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
	cases := []struct {
		name          string
		train, detect func(w *scenario.World) error
	}{
		{"classic-cpu-bomb", withBomber, func(w *scenario.World) error { return w.ClassicCPUBomb(dur) }},
		{"classic-network-bomb", withBomber, func(w *scenario.World) error { return w.ClassicNetworkBomb(dur) }},
		{"classic-animated-gif", withBomber, func(w *scenario.World) error { return w.ClassicAnimatedGIF(dur) }},
		{"attack1-component-hijack", benign, screenOn(func(w *scenario.World) error { return w.Attack1ComponentHijack(dur) })},
		{"attack2-background-apps", benign, screenOn(func(w *scenario.World) error { return w.Attack2BackgroundApps(dur) })},
		{"attack3-service-pin", benign, screenOn(func(w *scenario.World) error { return w.Attack3ServicePin(dur) })},
		{"attack4-interrupt-quit", benign, screenOn(func(w *scenario.World) error { return w.Attack4InterruptQuit(dur) })},
		{"attack5-brightness", benign, func(w *scenario.World) error { return w.Attack5Brightness(dur/2, dur/2) }},
		{"attack6-wakelock-screen", benign, func(w *scenario.World) error { return w.Attack6WakelockScreen(dur) }},
		{"scene1-message-film", benign, func(w *scenario.World) error { return w.Scene1MessageFilm() }},
		{"scene2-contacts-chain", benign, func(w *scenario.World) error { return w.Scene2ContactsChain() }},
		{"census-change", func(w *scenario.World) error {
			// An app arrives halfway through training...
			if err := w.Dev.Run(20 * time.Second); err != nil {
				return err
			}
			if _, err := w.InstallClassicBomber(); err != nil {
				return err
			}
			return benign(w)
		}, func(w *scenario.World) error {
			// ...and a trained one leaves halfway through detection.
			if err := w.Dev.Run(20 * time.Second); err != nil {
				return err
			}
			if err := w.Dev.Packages.Uninstall(scenario.PkgVictim); err != nil {
				return err
			}
			return w.ClassicCPUBomb(dur)
		}},
	}
	flagged := 0
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, d := detectorWorld(t)
			ref := &refSampler{meter: w.Dev.Meter, pm: w.Dev.Packages,
				traces: map[app.UID][]float64{}, sigs: map[app.UID]powersig.Signature{}}
			d.Start()
			w.Dev.Engine.Every(time.Second, "test.ref-sample", ref.tick)

			if err := tc.train(w); err != nil {
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

			if err := tc.detect(w); err != nil {
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

// Steady-state sampling ticks must not allocate: the frame scratch and
// the moment columns are sized by the first tick and then reused, so a
// window's memory does not grow with its length. Each measured run
// spans 300 ticks, more than one trace chunk of the former per-sample
// store held (256 frames), because AllocsPerRun rounds its average
// down to whole allocations per run.
func TestSampleSteadyStateAllocs(t *testing.T) {
	e := sim.NewEngine(1)
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
	if err := e.RunFor(time.Second); err != nil { // warm-up: sizes the frame and columns
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		if err := e.RunFor(300 * time.Second); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("300 steady-state sampling ticks allocate %.1f objects, want 0", avg)
	}
	if n := d.TraceLen(uid); n < 3000 {
		t.Fatalf("TraceLen = %d, the ticks sampled nothing", n)
	}
}
