// Package powersig implements the power-signature malware detector of
// Kim et al. ("Detecting Energy-Greedy Anomalies and Mobile Malware
// Variants", MobiSys 2008) that the paper's related-work analysis argues
// against: it samples each app's *own* power draw, builds a per-app
// signature (quantized power-level histogram over a training window) and
// flags apps whose live trace deviates from their trained profile.
//
// Classic energy malware — Martin et al.'s bombers that burn CPU, the
// display or the radio in their own process — light up their own traces
// and are caught. Collateral energy malware drains the battery through
// *other* apps' processes, so its own trace stays flat and the detector
// stays silent. The paper's claim ("power signature cannot tackle
// collateral energy malware that drains energy via an indirect
// approach") is reproduced by the experiments in this package's tests.
//
// Sampling is event-driven: the 1 Hz tick instants live on a lazy
// engine clock (sim.Lane) and are folded in closed form when per-app
// power or the app census is about to change, so a running detector
// adds no events to the simulation (see Detector).
package powersig

import (
	"fmt"
	"math"
	"time"

	"repro/internal/app"
	"repro/internal/hw"
	"repro/internal/sim"
)

// DefaultSamplePeriod is how often traces are sampled.
const DefaultSamplePeriod = time.Second

// Signature is one app's trained power profile.
type Signature struct {
	UID app.UID
	// MeanMW and StdMW summarize the training window.
	MeanMW float64
	StdMW  float64
	// PeakMW is the largest sample seen in training.
	PeakMW float64
	// Samples is how many observations went in.
	Samples int
}

// String renders the signature compactly.
func (s Signature) String() string {
	return fmt.Sprintf("sig{uid=%d mean=%.1fmW std=%.1f peak=%.1f n=%d}",
		s.UID, s.MeanMW, s.StdMW, s.PeakMW, s.Samples)
}

// Verdict is the detector's judgement for one app.
type Verdict struct {
	UID app.UID
	// Anomalous marks a live trace that exceeds the trained profile.
	Anomalous bool
	// LiveMeanMW is the mean of the detection window.
	LiveMeanMW float64
	// TrainedMeanMW echoes the signature's mean.
	TrainedMeanMW float64
}

// moments are one window's running per-app statistics — sample count,
// sum, peak and M2 (the sum of squared deviations from the mean) — in
// columns indexed by app slot (see app.Slot).
type moments struct {
	n    []int
	sum  []float64
	peak []float64
	m2   []float64
}

// grow makes the columns cover slots [0, size).
func (w *moments) grow(size int) {
	if k := size - len(w.n); k > 0 {
		w.n = append(w.n, make([]int, k)...)
		w.sum = append(w.sum, make([]float64, k)...)
		w.peak = append(w.peak, make([]float64, k)...)
		w.m2 = append(w.m2, make([]float64, k)...)
	}
}

// addRun folds k samples of value v into slot s, as k calls of a
// one-sample update would in time order: the sum still takes k adds of
// v, one at a time, so every mean stays bit-identical to summarizing
// the raw trace (a zero run skips them: every sum here is
// non-negative, so adding +0 changes nothing). M2 takes the exact
// pairwise (Chan et al.) merge of a constant run, which for k = 1 is
// the Youngs–Cramer update.
func (w *moments) addRun(s int32, v float64, k int) {
	if k == 0 {
		return
	}
	n, sum := w.n[s], w.sum[s]
	if n > 0 {
		d := float64(n)*v - sum
		w.m2[s] += d * d / (float64(n) * float64(n+k)) * float64(k)
	}
	w.n[s] = n + k
	if v != 0 {
		for i := 0; i < k; i++ {
			sum += v
		}
		w.sum[s] = sum
	}
	if v > w.peak[s] {
		w.peak[s] = v
	}
}

// summary is slot s's signature; the slot must hold samples.
func (w *moments) summary(s int) Signature {
	n := float64(w.n[s])
	return Signature{
		UID:     app.FromSlot(s),
		MeanMW:  w.sum[s] / n,
		StdMW:   math.Sqrt(w.m2[s] / n),
		PeakMW:  w.peak[s],
		Samples: w.n[s],
	}
}

// reset empties the window, keeping its columns.
func (w *moments) reset() {
	clear(w.n)
	clear(w.sum)
	clear(w.peak)
	clear(w.m2)
}

// Detector samples per-app power from the meter on a fixed period,
// trains signatures over an initial window, then compares live windows
// against them.
//
// It schedules nothing. A meter's per-app power is constant between
// its changes (the exact interval integration of DESIGN.md §1), so the
// sample at every tick instant is known without visiting it: the tick
// instants live on a lazy engine clock (sim.Lane), and the detector
// folds the ticks that have elapsed in closed form, only when per-app
// power or the app census is about to change (the meter's
// OnAppPowerChange and the package manager's census hooks) or when a
// window is read. Within one fold each app's power is constant, except
// that a WiFi tail expiring between ticks splits its run in two.
//
// It keeps no samples. A signature judges a trace by its count, mean,
// spread and peak alone, so a fold adds each app's run to the live
// window's count, sum, peak and M2 columns (see moments). The sum is
// added in time order, exactly as a sum over the stored trace would
// be, so every MeanMW is bit-identical to summarizing the raw samples.
// StdMW comes from a one-pass M2 and agrees with a two-pass summary to
// rounding, not bit for bit.
type Detector struct {
	meter *hw.Meter
	pm    *app.PackageManager

	// lane holds the tick instants; it runs between Start and Stop.
	lane *sim.Lane

	// live accumulates the samples taken since the last Train.
	live moments
	// frameSlots/frameBase/frameTail are the fold's scratch frame:
	// frameN is the logical length of the census, cached across folds
	// and rebuilt only after an install or uninstall clears censusOK.
	frameSlots []int32
	frameBase  []float64
	frameTail  []sim.Time
	frameN     int
	censusOK   bool
	// censusFn is the EachApp callback, built once so a census rebuild
	// does not close over the receiver each time.
	censusFn func(*app.App)
	// sigs holds the trained signatures by app slot; Samples == 0
	// marks a slot never trained.
	sigs []Signature
}

// NewDetector builds a detector; Start begins sampling.
func NewDetector(engine *sim.Engine, meter *hw.Meter, pm *app.PackageManager, period time.Duration) (*Detector, error) {
	if engine == nil || meter == nil || pm == nil {
		return nil, fmt.Errorf("powersig: nil dependency")
	}
	if period <= 0 {
		period = DefaultSamplePeriod
	}
	d := &Detector{
		meter: meter,
		pm:    pm,
		lane:  engine.NewLane(period),
	}
	d.censusFn = func(a *app.App) {
		if a.System {
			return
		}
		s := app.Slot(a.UID)
		if s < 0 {
			return
		}
		n := d.frameN
		if n == len(d.frameSlots) {
			d.frameSlots = append(d.frameSlots, 0)
		}
		d.frameSlots[n] = int32(s)
		d.frameN = n + 1
	}
	meter.OnAppPowerChange(d.fold)
	pm.AddCensusHook(func() {
		d.fold()
		d.censusOK = false
	})
	return d, nil
}

// Start begins periodic sampling, first one period from now. Stop with
// Stop.
func (d *Detector) Start() { d.lane.Start() }

// Stop halts sampling, keeping the samples taken so far.
func (d *Detector) Stop() {
	d.fold()
	d.lane.Stop()
}

// fold adds the samples of every tick the lane has fired since the
// last fold. Per-app power has not changed since then (every change
// folds first), so each app contributes one constant run, split at its
// WiFi tail's expiry when that falls inside the span.
func (d *Detector) fold() {
	first, k := d.lane.Take()
	if k == 0 {
		return
	}
	// EachApp iterates the package manager's cached sorted list.
	if !d.censusOK {
		d.frameN = 0
		d.pm.EachApp(d.censusFn)
		d.censusOK = true
		if n := d.frameN; n > 0 {
			d.live.grow(int(d.frameSlots[n-1]) + 1) // slots are ascending
			if cap(d.frameBase) < n {
				d.frameBase = make([]float64, n)
				d.frameTail = make([]sim.Time, n)
			}
		}
	}
	n := d.frameN
	if n == 0 {
		return
	}
	slots, base, tail := d.frameSlots[:n], d.frameBase[:n], d.frameTail[:n]
	d.meter.AppPowerPartsInto(slots, base, tail)
	low, p := d.meter.Profile().WiFiLow, sim.Time(d.lane.Period())
	for j, s := range slots {
		v, exp := base[j], tail[j]
		if exp <= first {
			d.live.addRun(s, v, k)
			continue
		}
		// Ticks first+i·p with i < inTail fall before the expiry
		// and carry the tail's draw (the meter counts it iff exp > τ).
		inTail := int((exp - first + p - 1) / p)
		if inTail > k {
			inTail = k
		}
		d.live.addRun(s, v+low, inTail)
		d.live.addRun(s, v, k-inTail)
	}
}

// TraceLen reports how many samples uid has accumulated.
func (d *Detector) TraceLen(uid app.UID) int {
	d.fold()
	if s := app.Slot(uid); s >= 0 && s < len(d.live.n) {
		return d.live.n[s]
	}
	return 0
}

// Train freezes the samples collected so far into per-app signatures and
// clears the live traces. Call after a known-benign observation window.
func (d *Detector) Train() error {
	d.fold()
	trained := 0
	for s, n := range d.live.n {
		if n == 0 {
			continue
		}
		for len(d.sigs) <= s {
			d.sigs = append(d.sigs, Signature{})
		}
		d.sigs[s] = d.live.summary(s)
		trained++
	}
	if trained == 0 {
		return fmt.Errorf("powersig: no samples to train on")
	}
	d.live.reset()
	return nil
}

// Signatures returns the trained signatures sorted by UID.
func (d *Detector) Signatures() []Signature {
	var out []Signature
	for _, sig := range d.sigs {
		if sig.Samples > 0 {
			out = append(out, sig)
		}
	}
	return out
}

// slackMW tolerates small absolute drifts so near-zero trained profiles
// don't flag on noise-level activity.
const slackMW = 25

// Classify compares each app's live trace (sampled since Train) against
// its signature: a live mean beyond mean+3σ+slack, or beyond twice the
// trained peak (whichever is larger), is anomalous. Apps without a
// trained signature are judged against a zero profile.
func (d *Detector) Classify() []Verdict {
	d.fold()
	// Slot order is UID order, so the columns iterate already sorted.
	var out []Verdict
	for s, n := range d.live.n {
		if n == 0 {
			continue
		}
		live := d.live.summary(s)
		var sig Signature // zero profile for apps never trained
		if s < len(d.sigs) {
			sig = d.sigs[s]
		}
		threshold := sig.MeanMW + 3*sig.StdMW + slackMW
		if alt := 2 * sig.PeakMW; alt > threshold {
			threshold = alt
		}
		out = append(out, Verdict{
			UID:           live.UID,
			Anomalous:     live.MeanMW > threshold,
			LiveMeanMW:    live.MeanMW,
			TrainedMeanMW: sig.MeanMW,
		})
	}
	return out
}

// Anomalous returns just the flagged UIDs from Classify, sorted.
func (d *Detector) Anomalous() []app.UID {
	var out []app.UID
	for _, v := range d.Classify() {
		if v.Anomalous {
			out = append(out, v.UID)
		}
	}
	return out
}
