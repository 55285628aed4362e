package experiments

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/accounting"
	"repro/internal/check"
	"repro/internal/device"
	"repro/internal/powersig"
	"repro/internal/scenario"
	"repro/internal/telemetry"
)

// The overhead studies (telemetry, check, obsv, trace) repeat the
// paper's §VI-C argument against this repo's own instrumentation: time
// the same workload with the instrumentation absent, built but off, and
// on. They share one measurement protocol, implemented once here.
//
// Noise control, in three layers. (1) One untimed warm-up run of the
// first leg settles allocator and cache state. (2) The collector is
// paused for the whole study and run explicitly before each timed run:
// an instrumented leg's live state (a recorder's ~1.5 MB ring, say)
// shifts the GC pacing target, and with ~10 ms workloads whether a run
// absorbs one or two collection cycles dwarfs the cost being measured.
// (3) Legs within a rotation are timed back-to-back and the first leg
// of each round rotates, so host drift slower than one round cancels in
// a paired ratio and ordering bias cancels across rounds. The 1% "off
// costs nothing" gates are judged on the interquartile mean of the
// per-round (off / baseline) ratios, which also trims scheduler
// outliers; min-over-rounds wall times are reported beside it, the
// standard floor estimate under scheduling noise. Heavy, allocating
// legs run in their own rotation after the gate pair so their heap
// churn cannot perturb it.

// leg is one configuration of an overhead study.
type leg struct {
	// prep, when set, readies one run before the collection that
	// precedes it and before the clock starts.
	prep func()
	// run is the timed part.
	run func() error
	// ms collects the wall time of each timed run, in milliseconds.
	ms []float64
}

// rotation times rounds rounds of its legs; round r runs them in the
// order legs[(r+k)%len(legs)] for k = 0, 1, ...
type rotation struct {
	rounds int
	legs   []*leg
}

// timeRotations runs a study's schedule: with the collector paused, the
// first leg of the first rotation once untimed as a warm-up, then every
// rotation in order, collecting before each timed run.
func timeRotations(rots ...rotation) error {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if err := rots[0].legs[0].once(); err != nil {
		return err
	}
	for _, rot := range rots {
		for round := 0; round < rot.rounds; round++ {
			for k := range rot.legs {
				l := rot.legs[(round+k)%len(rot.legs)]
				if l.prep != nil {
					l.prep()
				}
				runtime.GC()
				start := time.Now()
				if err := l.run(); err != nil {
					return err
				}
				l.ms = append(l.ms, float64(time.Since(start).Microseconds())/1000)
			}
		}
	}
	return nil
}

func (l *leg) once() error {
	if l.prep != nil {
		l.prep()
	}
	return l.run()
}

// minMS is a leg's floor: its smallest timed run.
func minMS(ms []float64) float64 {
	m := ms[0]
	for _, v := range ms[1:] {
		m = min(m, v)
	}
	return m
}

// pairedIQM is the paired gate statistic, in percent: the interquartile
// mean over rounds of the ratio of x's wall time to base's in the same
// round, minus one.
func pairedIQM(base, x []float64) float64 {
	ratios := make([]float64, len(base))
	for i := range base {
		ratios[i] = x[i] / base[i]
	}
	sort.Float64s(ratios)
	mid := ratios[len(ratios)/4 : len(ratios)-len(ratios)/4]
	var sum float64
	for _, r := range mid {
		sum += r
	}
	return (sum/float64(len(mid)) - 1) * 100
}

// overheadPct is v's overhead over base, in percent.
func overheadPct(v, base float64) float64 {
	if base == 0 {
		return 0
	}
	return (v/base - 1) * 100
}

// Gate is one overhead gate: a measured overhead over the baseline and
// the most it may be, both in percent.
type Gate struct {
	Name     string
	Pct, Max float64
}

// Pass reports whether the measured overhead is within the gate.
func (g Gate) Pass() bool { return g.Pct <= g.Max }

func (g Gate) String() string {
	return fmt.Sprintf("%s %.2f%% <= %.0f%% pass=%v", g.Name, g.Pct, g.Max, g.Pass())
}

// The gate thresholds, in percent over the uninstrumented baseline.
const (
	// offGatePct: instrumentation that is built but turned off costs
	// one branch per site, so it must stay within 1%.
	offGatePct = 1.0
	// onGatePct: full recording, or tracing every device, within 10%.
	onGatePct = 10.0
	// checkGatePct: the passive checker must stay within 5% to keep
	// its always-available default honest.
	checkGatePct = 5.0
)

// overheadHorizon is the virtual span of the stealth workload. Long
// enough that a run's wall time (~7 ms) puts the 1% gates well above
// timer noise; the detector's 1 Hz samples wrap the default event ring
// several times over, which is deliberate — an enabled recorder is
// charged for the ring's steady-state overwrite path, not just the
// cheaper fill phase.
const overheadHorizon = 32 * time.Hour

// stealthRun runs the workload the telemetry, check and obsv studies
// share — the stealth attack plus a power-signature detector sampling
// every virtual second over overheadHorizon — on an E-Android
// BatteryStats device built with rec and checks. attach, when set,
// instruments the device before the detector starts.
func stealthRun(rec *telemetry.Recorder, checks *check.Options, attach func(*device.Device) error) (*device.Device, error) {
	w, err := scenario.NewWorld(device.Config{
		EAndroid:  true,
		Policy:    accounting.BatteryStats,
		Telemetry: rec,
		Checks:    checks,
	})
	if err != nil {
		return nil, err
	}
	if attach != nil {
		if err := attach(w.Dev); err != nil {
			return nil, err
		}
	}
	det, err := powersig.NewDetector(w.Dev.Engine, w.Dev.Meter, w.Dev.Packages, 0)
	if err != nil {
		return nil, err
	}
	det.Start()
	if err := w.ForceScreenOn(); err != nil {
		return nil, err
	}
	if err := w.StealthAutoLaunch(60 * time.Second); err != nil {
		return nil, err
	}
	return w.Dev, w.Dev.Run(overheadHorizon)
}
