package powersig_test

import (
	"context"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/accounting"
	"repro/internal/check"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/powersig"
	"repro/internal/scenario"
)

// detectorGolden is the pinned detector output: every trained
// signature (sample count, MeanMW and PeakMW bits) and every verdict of
// the ext-detection scenes and of an 8-device fleet shaped like
// FleetBenchStudy. StdMW is left out: a one-pass M2 agrees with other
// accumulation orders only to rounding (see stdClose).
const detectorGolden = "testdata/detector_golden.txt"

func renderDetector(b *strings.Builder, name string, d *powersig.Detector, verdicts []powersig.Verdict) {
	fmt.Fprintf(b, "%s\n", name)
	for _, s := range d.Signatures() {
		fmt.Fprintf(b, "  sig uid=%d n=%d mean=%016x peak=%016x\n",
			s.UID, s.Samples, math.Float64bits(s.MeanMW), math.Float64bits(s.PeakMW))
	}
	for _, v := range verdicts {
		fmt.Fprintf(b, "  verdict uid=%d anomalous=%v live=%016x trained=%016x\n",
			v.UID, v.Anomalous, math.Float64bits(v.LiveMeanMW), math.Float64bits(v.TrainedMeanMW))
	}
}

// detectionScenes replays the two ext-detection cases: a classic CPU
// bomb and collateral attack #3, each trained over 30 s of idle use.
func detectionScenes(t *testing.T, b *strings.Builder) {
	scenes := []struct {
		name          string
		setup, detect func(w *scenario.World) error
	}{
		{"classic-cpu-bomb", func(w *scenario.World) error {
			_, err := w.InstallClassicBomber()
			return err
		}, func(w *scenario.World) error { return w.ClassicCPUBomb(60 * time.Second) }},
		{"collateral-attack3", func(*scenario.World) error { return nil }, func(w *scenario.World) error {
			if err := w.ForceScreenOn(); err != nil {
				return err
			}
			return w.Attack3ServicePin(60 * time.Second)
		}},
	}
	for _, sc := range scenes {
		w, d := detectorWorld(t)
		if err := sc.setup(w); err != nil {
			t.Fatal(err)
		}
		d.Start()
		if err := w.Dev.Run(30 * time.Second); err != nil {
			t.Fatal(err)
		}
		if err := d.Train(); err != nil {
			t.Fatal(err)
		}
		if err := sc.detect(w); err != nil {
			t.Fatal(err)
		}
		renderDetector(b, "scene "+sc.name, d, d.Classify())
	}
}

// benchFleet runs 8 FleetBenchStudy devices (stealth auto-launch,
// screen forced on, a 1 Hz detector, 30 min), trained at 15 min and
// classified at the horizon.
func benchFleet(t *testing.T, b *strings.Builder) {
	const devices = 8
	dets := make([]*powersig.Detector, devices)
	fr, err := fleet.Run(context.Background(), fleet.Spec{
		Devices:       devices,
		Workers:       2,
		Seed:          20171,
		RetainResults: true,
		Config:        device.Config{EAndroid: true, Policy: accounting.BatteryStats, Checks: &check.Options{}},
		Horizon:       30 * time.Minute,
		Scenario: func(i int, dev *device.Device) error {
			w, err := scenario.Populate(dev)
			if err != nil {
				return err
			}
			det, err := powersig.NewDetector(dev.Engine, dev.Meter, dev.Packages, 0)
			if err != nil {
				return err
			}
			det.Start()
			dets[i] = det
			if err := w.ForceScreenOn(); err != nil {
				return err
			}
			if err := w.StealthAutoLaunch(60 * time.Second); err != nil {
				return err
			}
			dev.Engine.After(15*time.Minute, "test.train", func() {
				if err := det.Train(); err != nil {
					dev.Engine.Fail(err)
				}
			})
			return nil
		},
		Collect: func(i int, dev *device.Device) (any, error) {
			return dets[i].Classify(), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range fr.Results {
		if r.Err != nil {
			t.Fatalf("device %d: %v", r.Index, r.Err)
		}
		renderDetector(b, fmt.Sprintf("fleet device %d", r.Index), dets[r.Index], r.Custom.([]powersig.Verdict))
	}
}

// TestDetectorGolden pins the detector's signatures and verdicts bit
// for bit. Every MeanMW is a time-ordered sum of the sampled trace, so
// any change to which instants are sampled, in what order relative to
// meter changes, or how the sum is accumulated shows up here.
func TestDetectorGolden(t *testing.T) {
	var b strings.Builder
	detectionScenes(t, &b)
	benchFleet(t, &b)
	want, err := os.ReadFile(detectorGolden)
	if err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s differs at line %d:\n got  %q\n want %q", detectorGolden, i+1, g, w)
		}
	}
}
