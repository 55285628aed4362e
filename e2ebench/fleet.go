package main

import (
	"context"
	"runtime/metrics"
	"strconv"
	"time"

	"repro/internal/accounting"
	"repro/internal/app"
	"repro/internal/check"
	"repro/internal/corpus"
	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/fleet/population"
	"repro/internal/powersig"
	"repro/internal/scenario"
	"repro/internal/telemetry"
)

// fleetBatch is one fleet.Run of a fleet workload: its seed, the
// instants its hooks and wrapped calls were reached (marks, only on a
// traced leg), and the outputs the correctness gate reads.
type fleetBatch struct {
	k       int
	devices int
	seed    int64

	// marks[i][m] is when device i reached mark m, in ns since the
	// recorder's epoch plus one (0 = not reached). Each device's row is
	// written only by the worker running it, so the hot path takes no
	// lock; flush turns the rows into spans after the batch.
	marks [][nMarks]int64

	verdicts [][]powersig.Verdict // fleet-powersig: per device
	samples  []int                // fleet-powersig, traced: detector samples per device

	legMode
}

// legMode selects how a leg's batches run.
type legMode struct {
	rec       *recorder // spans; nil on an untraced leg
	ablate    bool      // fleet-powersig: detector never started
	telemetry bool      // per-device telemetry, counting only
	batches   int       // run exactly this many batches instead of a timed leg
}

// Marks bounding the spans of one device.
const (
	mDevice   = iota // Configure entered: the device span opens
	mNew             // Configure returned: device construction starts
	mScenario        // Scenario entered: construction done
	mPopulate
	mPopulateEnd
	mGenerate
	mGenerateEnd
	mApply // the scripted run: Script.Apply or StealthAutoLaunch
	mApplyEnd
	mHorizon // Scenario returned: horizon, harvest, checks, Collect
	mTrain
	mTrainEnd
	mClassify
	mClassifyEnd
	mStream // Stream entered: the device span closes
	nMarks
)

// markSpans lists the spans flush builds: name, layer, bounds, and the
// mark whose span is the parent (-1 = the device span).
var markSpans = []struct {
	name, layer string
	from, to    int
	parent      int
}{
	{"fleet.configure", "fleet", mDevice, mNew, -1},
	{"device.new", "device", mNew, mScenario, -1},
	{"scenario", "scenario", mScenario, mHorizon, -1},
	{"scenario.populate", "scenario", mPopulate, mPopulateEnd, mScenario},
	{"corpus.generate", "corpus", mGenerate, mGenerateEnd, mScenario},
	{"corpus.apply", "engine", mApply, mApplyEnd, mScenario},
	{"fleet.horizon", "fleet", mHorizon, mStream, -1},
	{"powersig.train", "powersig", mTrain, mTrainEnd, mHorizon},
	{"powersig.classify", "powersig", mClassify, mClassifyEnd, mHorizon},
}

// batchSeed derives batch k's fleet seed from the workload seed with the
// fleet's own SplitMix64 chain.
func batchSeed(seed int64, k int) int64 { return fleet.DeviceSeed(seed, k) }

func newBatch(k, devices int, seed int64, mode legMode) *fleetBatch {
	b := &fleetBatch{k: k, devices: devices, seed: batchSeed(seed, k), legMode: mode,
		verdicts: make([][]powersig.Verdict, devices), samples: make([]int, devices)}
	if mode.rec != nil {
		b.marks = make([][nMarks]int64, devices)
	}
	return b
}

// mark records that device i reached m.
func (b *fleetBatch) mark(i, m int) {
	if b.marks != nil {
		b.marks[i][m] = b.rec.now() + 1
	}
}

// call runs fn between two marks of device i.
func (b *fleetBatch) call(i, from, to int, fn func() error) error {
	b.mark(i, from)
	err := fn()
	b.mark(i, to)
	return err
}

// instrument wraps the spec's hooks with marks. Each device span runs
// from Configure to Stream; device.new is the Configure→Scenario gap
// (device construction inside the fleet worker) and fleet.horizon the
// Scenario-return→Stream gap (horizon run, harvest, checks, Collect).
func (b *fleetBatch) instrument(spec *fleet.Spec) {
	if b.rec == nil {
		return
	}
	conf, scen, stream := spec.Configure, spec.Scenario, spec.Stream
	spec.Configure = func(i int, cfg *device.Config) {
		b.mark(i, mDevice)
		if conf != nil {
			conf(i, cfg)
		}
		b.mark(i, mNew)
	}
	spec.Scenario = func(i int, dev *device.Device) error {
		b.mark(i, mScenario)
		err := scen(i, dev)
		b.mark(i, mHorizon)
		return err
	}
	spec.Stream = func(r fleet.Result) {
		b.mark(r.Index, mStream)
		if stream != nil {
			stream(r)
		}
	}
}

// flush turns the batch's marks into one span tree rooted at the batch
// span (start to end) and hands it to the recorder.
func (b *fleetBatch) flush(start, end time.Time) {
	if b.rec == nil {
		return
	}
	bid := "b" + strconv.Itoa(b.k)
	tree := make([]span, 1, 1+b.devices*(len(markSpans)+1))
	tree[0] = span{ID: bid, Layer: "fleet", Name: "fleet.run", Start: b.rec.at(start), End: b.rec.at(end), Parent: -1}
	for i, m := range b.marks {
		id := bid + "/d" + strconv.Itoa(i)
		dev := len(tree)
		tree = append(tree, span{ID: id, Layer: "fleet", Name: "device", Start: m[mDevice] - 1, End: m[mStream] - 1, Parent: 0})
		var at [nMarks]int // tree index of the span opened at each mark
		for _, ms := range markSpans {
			if m[ms.from] == 0 || m[ms.to] == 0 {
				continue
			}
			parent := dev
			if ms.parent >= 0 {
				if parent = at[ms.parent]; parent == 0 {
					continue // its parent span was never reached
				}
			}
			at[ms.from] = len(tree)
			tree = append(tree, span{ID: id, Layer: ms.layer, Name: ms.name,
				Start: m[ms.from] - 1, End: m[ms.to] - 1, Parent: parent})
		}
	}
	b.rec.addTree(tree)
}

// populationSpec is the fleet-population batch: population.Default()'s
// streaming spec. On a traced leg its Scenario is rebuilt from the same
// public calls (Populate, Generate, Apply) so each can be timed; the
// correctness gate holds the rebuilt path to the same digest.
func populationSpec(b *fleetBatch, workers int) (fleet.Spec, error) {
	p := population.Default()
	spec, err := p.FleetSpec(b.devices, workers, 0, b.seed)
	if err != nil || b.rec == nil {
		return spec, err
	}
	params := corpus.Params{Horizon: corpus.MinHorizon}
	spec.Scenario = func(i int, dev *device.Device) error {
		ci := p.Assign(b.seed, i)
		var w *scenario.World
		var script *corpus.Script
		if err := b.call(i, mPopulate, mPopulateEnd, func() (err error) {
			w, err = scenario.Populate(dev)
			return err
		}); err != nil {
			return err
		}
		if err := b.call(i, mGenerate, mGenerateEnd, func() (err error) {
			script, err = corpus.Generate(p.Cohorts[ci].Cell, corpus.ScriptSeed(b.seed, ci, i), params)
			return err
		}); err != nil {
			return err
		}
		return b.call(i, mApply, mApplyEnd, func() error { return script.Apply(w) })
	}
	b.instrument(&spec)
	return spec, nil
}

// powersigHorizon and powersigTrainAt shape the fleet-powersig device:
// the FleetBenchStudy horizon, with the detector trained halfway
// through it and classified at its end.
const (
	powersigHorizon = 30 * time.Minute
	powersigTrainAt = 15 * time.Minute
)

// powersigSpec is the fleet-powersig batch: the FleetBenchStudy shape
// (stealth auto-launch, screen forced on, a 1 Hz powersig detector, a
// 30-minute horizon), followed by Train halfway and Classify at the end.
func powersigSpec(b *fleetBatch, workers int) (fleet.Spec, error) {
	dets := make([]*powersig.Detector, b.devices)
	spec := fleet.Spec{
		Devices: b.devices,
		Workers: workers,
		Seed:    b.seed,
		Config:  device.Config{EAndroid: true, Policy: accounting.BatteryStats, Checks: &check.Options{}},
		Horizon: powersigHorizon,
		Scenario: func(i int, dev *device.Device) error {
			var w *scenario.World
			if err := b.call(i, mPopulate, mPopulateEnd, func() (err error) {
				w, err = scenario.Populate(dev)
				return err
			}); err != nil {
				return err
			}
			det, err := powersig.NewDetector(dev.Engine, dev.Meter, dev.Packages, 0)
			if err != nil {
				return err
			}
			if !b.ablate {
				det.Start()
				dets[i] = det
			}
			if err := w.ForceScreenOn(); err != nil {
				return err
			}
			if err := b.call(i, mApply, mApplyEnd, func() error {
				return w.StealthAutoLaunch(60 * time.Second)
			}); err != nil {
				return err
			}
			if b.ablate {
				return nil
			}
			dev.Engine.After(powersigTrainAt, "e2ebench.train", func() {
				if b.marks != nil {
					b.samples[i] += detectorSamples(det, dev)
				}
				if err := b.call(i, mTrain, mTrainEnd, det.Train); err != nil {
					dev.Engine.Fail(err)
				}
			})
			return nil
		},
		Collect: func(i int, dev *device.Device) (any, error) {
			det := dets[i]
			if det == nil {
				return nil, nil
			}
			if b.marks != nil {
				b.samples[i] += detectorSamples(det, dev)
			}
			b.mark(i, mClassify)
			v := det.Classify()
			b.mark(i, mClassifyEnd)
			return v, nil
		},
		Stream: func(r fleet.Result) {
			if v, ok := r.Custom.([]powersig.Verdict); ok {
				b.verdicts[r.Index] = v
			}
		},
	}
	b.instrument(&spec)
	return spec, nil
}

// detectorSamples counts the per-app samples the detector holds for the
// device's non-system apps (read only on traced legs).
func detectorSamples(det *powersig.Detector, dev *device.Device) int {
	n := 0
	dev.Packages.EachApp(func(a *app.App) {
		if !a.System {
			n += det.TraceLen(a.UID)
		}
	})
	return n
}

// fleetWorkload is one of the two fleet workloads.
type fleetWorkload struct {
	name    string
	devices func(config) int
	build   func(*fleetBatch, int) (fleet.Spec, error)
}

var (
	populationWorkload = fleetWorkload{"fleet-population", func(c config) int { return c.popDevices }, populationSpec}
	powersigWorkload   = fleetWorkload{"fleet-powersig", func(c config) int { return c.sigDevices }, powersigSpec}
)

func runFleetPopulation(cfg config, ref *reference) (*result, error) {
	return runFleet(cfg, ref, populationWorkload)
}

func runFleetPowersig(cfg config, ref *reference) (*result, error) {
	return runFleet(cfg, ref, powersigWorkload)
}

// batchOut is one finished batch as the measurement loop saw it.
type batchOut struct {
	b       *fleetBatch
	fr      *fleet.FleetResult
	wall    time.Duration
	alloc   float64 // bytes allocated by the process during the run
	renders []float64
}

// leg is the outcome of one measured stretch of batches.
type leg struct {
	batches []batchOut
	wall    time.Duration
}

func (l *leg) simHours() float64 {
	var h float64
	for _, o := range l.batches {
		h += o.fr.Summary.TotalSimH
	}
	return h
}

func (l *leg) devices() int {
	n := 0
	for _, o := range l.batches {
		n += o.fr.Summary.Devices
	}
	return n
}

// runBatch runs batch b and times it, then times renderReps renders of
// its summary (the fleet path's analogue of serving a finished result).
func runBatch(cfg config, w fleetWorkload, b *fleetBatch, workers int) (batchOut, error) {
	spec, err := w.build(b, workers)
	if err != nil {
		return batchOut{}, err
	}
	if b.telemetry {
		spec.Telemetry = &telemetry.Options{EventCapacity: -1}
	}
	a0 := allocBytes()
	start := time.Now()
	fr, err := fleet.Run(context.Background(), spec)
	end := time.Now()
	alloc := allocBytes() - a0
	wall := end.Sub(start)
	b.flush(start, end)
	if err != nil {
		return batchOut{}, err
	}
	out := batchOut{b: b, fr: fr, wall: wall, alloc: alloc}
	for r := 0; r < cfg.renderReps; r++ {
		t := time.Now()
		_ = fr.Summary.Render(b.seed)
		out.renders = append(out.renders, float64(time.Since(t).Nanoseconds())/1e6)
	}
	return out, nil
}

// measure runs batches 0, 1, 2, … until the leg's time is spent (or
// mode.batches have run).
func measure(cfg config, w fleetWorkload, seconds float64, mode legMode) (leg, error) {
	var l leg
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	more := func(k int) bool {
		if mode.batches > 0 {
			return k < mode.batches
		}
		return k == 0 || time.Now().Before(deadline)
	}
	for k := 0; more(k); k++ {
		b := newBatch(k, w.devices(cfg), cfg.seed, mode)
		o, err := runBatch(cfg, w, b, cfg.workers)
		if err != nil {
			return l, err
		}
		l.batches = append(l.batches, o)
	}
	l.wall = time.Since(start)
	return l, nil
}

// setupFleet times what a run pays before its first measured batch:
// building the workload's spec and running one full-size warm-up batch,
// which grows the heap to its steady size and fills lazily built
// tables. It is repeated setupReps times; setup_s is the median.
func setupFleet(cfg config, w fleetWorkload) (float64, error) {
	times := make([]float64, cfg.setupReps)
	for r := range times {
		start := time.Now()
		b := newBatch(-1-r, w.devices(cfg), cfg.seed, legMode{})
		if _, err := runBatch(config{renderReps: 1}, w, b, cfg.workers); err != nil {
			return 0, err
		}
		times[r] = time.Since(start).Seconds()
	}
	return median(times), nil
}

func runFleet(cfg config, ref *reference, w fleetWorkload) (*result, error) {
	r := &result{Metrics: map[string]metric{}, Traffic: map[string]any{}}
	setup, err := setupFleet(cfg, w)
	if err != nil {
		return nil, err
	}
	var base leg
	if !cfg.trace {
		if base, err = measure(cfg, w, cfg.seconds, legMode{}); err != nil {
			return nil, err
		}
		setFleetEndToEnd(r, &base, setup)
	} else {
		if base, err = fleetTraced(cfg, w, r); err != nil {
			return nil, err
		}
	}
	gateFleet(cfg, ref, w, r, &base)
	fleetTraffic(cfg, w, r, &base)
	return r, nil
}

// setFleetEndToEnd reports the untraced leg. Throughput is the median
// over batches, so a burst of host noise in one batch does not move it.
func setFleetEndToEnd(r *result, l *leg, setup float64) {
	var alloc float64
	var batchMs, dshPerS, renders []float64
	for _, o := range l.batches {
		alloc += o.alloc
		batchMs = append(batchMs, float64(o.wall.Nanoseconds())/1e6)
		dshPerS = append(dshPerS, ratio(o.fr.Summary.TotalSimH, o.wall.Seconds()))
		renders = append(renders, o.renders...)
	}
	r.set("device_sim_hours_per_s", median(dshPerS))
	r.set("alloc_kb_per_device", ratio(alloc, float64(l.devices()))/1024)
	r.set("jobs_per_s", ratio(1000, median(batchMs)))
	r.set("hit_job_p50_ms", median(renders))
	r.set("cold_job_p50_ms", median(batchMs))
	r.set("cold_job_p90_ms", quantile(batchMs, 0.9))
	r.set("alloc_kb_per_job", ratio(alloc, float64(len(l.batches)))/1024)
	r.set("setup_s", setup)
}

// spanKeepBatches keeps one batch in this many in the span file; every
// batch counts toward the per-layer figures.
const spanKeepBatches = 16

// countBatches is how many batches the counting leg runs with telemetry
// on. The counters are deterministic, so a few batches suffice, and
// keeping telemetry's cost (about a third of a population device) out
// of the traced leg keeps its span timings close to the untraced run.
const countBatches = 4

// fleetTraced is the -trace 1 run: an untraced leg; a traced leg (spans,
// CPU profile, GC figures); a short counting leg with telemetry on; and,
// for fleet-powersig, an ablation leg with the detector never started.
// It returns the untraced leg for the correctness gate.
func fleetTraced(cfg config, w fleetWorkload, r *result) (leg, error) {
	zeroPerLayer(r)
	legs := 2.0
	if w.name == powersigWorkload.name {
		legs = 3
	}
	share := cfg.seconds / legs
	base, err := measure(cfg, w, share, legMode{})
	if err != nil {
		return base, err
	}
	counted, err := measure(cfg, w, 0, legMode{telemetry: true, batches: countBatches})
	if err != nil {
		return base, err
	}
	rec := newRecorder(spanKeepBatches)
	prof, err := startProfile()
	if err != nil {
		return base, err
	}
	traced, err := measure(cfg, w, share, legMode{rec: rec})
	gcCycles, perr := prof.stop(r)
	if err != nil {
		return base, err
	}
	if perr != nil {
		return base, perr
	}
	dsh := traced.simHours()
	devices := float64(traced.devices())
	var busyWall float64
	for _, o := range traced.batches {
		busyWall += o.wall.Seconds()
	}
	counters := map[string]float64{}
	for _, o := range counted.batches {
		if o.fr.Metrics == nil {
			continue
		}
		for _, c := range o.fr.Metrics.Counters {
			counters[c.Name] += c.Value
		}
	}
	deviceNs := rec.totalNs("device")
	countedDsh := counted.simHours()
	r.set("device.new_us", rec.meanUs("device.new"))
	r.set("scenario.populate_us", rec.meanUs("scenario.populate"))
	r.set("corpus.generate_us", rec.meanUs("corpus.generate"))
	r.set("corpus.apply_us", rec.meanUs("corpus.apply"))
	r.set("fleet.horizon_us", rec.meanUs("fleet.horizon"))
	r.set("fleet.idle_share", 1-ratio(deviceNs/1e9, float64(cfg.workers)*busyWall))
	eventsPerDsh := ratio(counters["sim.events_fired"], countedDsh)
	r.set("sim.events_per_dsh", eventsPerDsh)
	r.set("sim.ns_per_event", ratio(ratio(deviceNs, dsh), eventsPerDsh))
	r.set("acct.attributions_per_dsh", ratio(counters["acct.attributions"], countedDsh))
	r.set("hw.power_state_changes_per_dsh", ratio(counters["hw.power_state_changes"], countedDsh))
	r.set("hw.battery_updates_per_dsh", ratio(counters["hw.battery_updates"], countedDsh))
	r.set("activity.transitions_per_dsh", ratio(counters["activity.lifecycle_transitions"], countedDsh))
	r.set("gc.cycles_per_kdevice", ratio(gcCycles, devices/1000))
	overhead := ratio(base.simHours(), base.wall.Seconds()) / ratio(dsh, traced.wall.Seconds())
	r.set("trace.overhead_pct", 100*(overhead-1))
	r.Traffic["events_per_dsh"] = eventsPerDsh

	checked := []*leg{&base, &counted, &traced}
	if w.name == powersigWorkload.name {
		var samples int
		for _, o := range traced.batches {
			for _, s := range o.b.samples {
				samples += s
			}
		}
		r.set("powersig.samples_per_device", ratio(float64(samples), devices))
		r.set("powersig.train_us", rec.meanUs("powersig.train"))
		r.set("powersig.classify_us", rec.meanUs("powersig.classify"))
		ablation, err := measure(cfg, w, share, legMode{ablate: true})
		if err != nil {
			return base, err
		}
		full := ratio(base.wall.Seconds(), base.simHours())
		off := ratio(ablation.wall.Seconds(), ablation.simHours())
		r.set("powersig.share", 1-ratio(off, full))
		checked = append(checked, &ablation)
	}
	// Neither spans nor telemetry may change what is simulated: batch 0
	// renders the same on every leg.
	want := base.batches[0]
	for name, l := range map[string]*leg{"traced": &traced, "counting": &counted} {
		got := l.batches[0]
		if got.fr.Summary.Render(got.b.seed) != want.fr.Summary.Render(want.b.seed) {
			r.fail("%s leg's batch 0 summary differs from the untraced run", name)
		}
		if verdictDigest(got.b.verdicts) != verdictDigest(want.b.verdicts) {
			r.fail("%s leg's batch 0 powersig verdicts differ from the untraced run", name)
		}
	}
	for _, l := range checked {
		countFleet(r, l)
	}
	r.Workload = w.name
	return base, setTraceMetrics(r, cfg, rec)
}

// countFleet adds a leg's devices to attempted and its failed devices
// to failed, and fails the gate on any failed device or invariant
// violation. A batch with violations but no failed device counts one
// failure, since the summary does not say how many devices broke.
func countFleet(r *result, l *leg) {
	for _, o := range l.batches {
		s := &o.fr.Summary
		r.Attempted += s.Devices
		bad := s.Failed
		if s.Violations > 0 && bad == 0 {
			bad = 1
		}
		if bad > 0 {
			r.fail("batch %d: %d failed devices, %d invariant violations", o.b.k, s.Failed, s.Violations)
		}
		r.Failed += bad
	}
}

// gateFleet is the fleet workloads' correctness gate on batch 0: its
// summary render and powersig verdicts must match the committed
// reference (when the reference has this workload, size and seed), and
// a 1-worker re-run must reproduce the 2-worker one byte for byte.
func gateFleet(cfg config, ref *reference, w fleetWorkload, r *result, l *leg) {
	if !cfg.trace {
		countFleet(r, l)
	}
	first := l.batches[0]
	render := digest([]byte(first.fr.Summary.Render(first.b.seed)))
	verdicts := verdictDigest(first.b.verdicts)
	devices := w.devices(cfg)
	for what, got := range map[string]string{"summary": render, "verdicts": verdicts} {
		if want, ok := ref.Fleet[fleetRefKey(w.name, devices, cfg.seed, what)]; ok && want != got {
			r.fail("batch 0 %s digest %s, reference %s", what, got[:16], want[:16])
		}
	}
	solo := newBatch(0, devices, cfg.seed, legMode{})
	o, err := runBatch(config{}, w, solo, 1)
	if err != nil {
		r.fail("1-worker re-run: %v", err)
		return
	}
	if digest([]byte(o.fr.Summary.Render(solo.seed))) != render {
		r.fail("batch 0 summary differs between 1 and %d workers", cfg.workers)
	}
	if verdictDigest(solo.verdicts) != verdicts {
		r.fail("batch 0 powersig verdicts differ between 1 and %d workers", cfg.workers)
	}
}

// fleetTraffic records the workload's input properties: the cohort mix
// of the devices run and the batch shape.
func fleetTraffic(cfg config, w fleetWorkload, r *result, l *leg) {
	r.Traffic["batches"] = len(l.batches)
	r.Traffic["devices_per_batch"] = w.devices(cfg)
	r.Traffic["hit_share"] = 0.0
	if w.name != populationWorkload.name {
		r.Traffic["cohorts"] = map[string]int{"stealth-powersig": l.devices()}
		return
	}
	p := population.Default()
	mix := map[string]int{}
	for _, o := range l.batches {
		for i := 0; i < o.b.devices; i++ {
			mix[p.Cohorts[p.Assign(o.b.seed, i)].Name]++
		}
	}
	r.Traffic["cohorts"] = mix
}

// allocBytes reads the process's cumulative heap allocation.
func allocBytes() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}
