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
	for len(w.n) < size {
		w.n = append(w.n, 0)
		w.sum = append(w.sum, 0)
		w.peak = append(w.peak, 0)
		w.m2 = append(w.m2, 0)
	}
}

// add folds one sample v of slot s.
func (w *moments) add(s int32, v float64) {
	n, sum := w.n[s], w.sum[s]
	if n > 0 {
		d := float64(n)*v - sum
		w.m2[s] += d * d / (float64(n) * float64(n+1))
	}
	w.n[s] = n + 1
	w.sum[s] = sum + v
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
// It keeps no samples. A signature judges a trace by its count, mean,
// spread and peak alone, so each tick folds its frame into the live
// window's count, sum, peak and M2 columns (see moments) with plain
// indexed stores: no per-sample storage, hashing or GC write barriers
// on the 1 Hz × devices × apps hot path, and a window's memory does not
// grow with its length. The sum is added in time order, exactly as a
// sum over the stored trace would be, so every MeanMW is bit-identical
// to summarizing the raw samples. StdMW comes from a one-pass
// (Youngs–Cramer) M2 and agrees with a two-pass summary to rounding,
// not bit for bit.
type Detector struct {
	engine *sim.Engine
	meter  *hw.Meter
	pm     *app.PackageManager
	period time.Duration

	ticker *sim.Ticker

	// live accumulates the samples taken since the last Train.
	live moments
	// frameSlots/frameVals are the current tick's scratch frame —
	// frameN is the logical length; the slices stay at full length and
	// are written by index so the hot callback never stores a slice
	// header (each such store is a GC write barrier). The slot census
	// is cached across ticks and rebuilt only when the package
	// manager's generation moves (install/uninstall).
	frameSlots []int32
	frameVals  []float64
	frameN     int
	censusGen  uint64
	censusOK   bool
	// sampleFn is the EachApp callback, built once so sampling does not
	// close over the receiver on every tick.
	sampleFn func(*app.App)
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
		engine: engine,
		meter:  meter,
		pm:     pm,
		period: period,
	}
	d.sampleFn = func(a *app.App) {
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
	return d, nil
}

// Start begins periodic sampling. Stop with Stop.
func (d *Detector) Start() {
	if d.ticker != nil {
		return
	}
	d.ticker = d.engine.Every(d.period, "powersig.sample", d.sample)
}

// Stop halts sampling.
func (d *Detector) Stop() {
	if d.ticker != nil {
		d.ticker.Stop()
		d.ticker = nil
	}
}

func (d *Detector) sample() {
	// EachApp iterates the package manager's cached sorted list — the
	// per-sample copy+sort of Apps() dominated the fleet bench's
	// allocation profile at a 1 Hz sampling rate per device.
	if g := d.pm.Gen(); !d.censusOK || g != d.censusGen {
		d.frameN = 0
		d.pm.EachApp(d.sampleFn)
		d.censusGen, d.censusOK = g, true
		if k := d.frameN; k > 0 {
			d.live.grow(int(d.frameSlots[k-1]) + 1) // slots are ascending
		}
	}
	k := d.frameN
	if k == 0 {
		return
	}
	slots := d.frameSlots[:k]
	vals := d.frameVals
	if cap(vals) < k {
		vals = make([]float64, k)
		d.frameVals = vals
	} else {
		vals = vals[:k]
	}
	// One bulk meter pass computes the whole frame; apps without live
	// meter state are zero-filled without a per-app lookup.
	d.meter.AppPowersInto(slots, vals)
	for j, s := range slots {
		d.live.add(s, vals[j])
	}
}

// TraceLen reports how many samples uid has accumulated.
func (d *Detector) TraceLen(uid app.UID) int {
	if s := app.Slot(uid); s >= 0 && s < len(d.live.n) {
		return d.live.n[s]
	}
	return 0
}

// Train freezes the samples collected so far into per-app signatures and
// clears the live traces. Call after a known-benign observation window.
func (d *Detector) Train() error {
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
