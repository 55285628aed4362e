package main

import (
	"math"
	"sort"
)

// decl is one declared metric. The lists mirror BENCHMARK.json; the
// self-test holds the two in step.
type decl struct {
	name, unit string
}

// endToEnd are the metrics a user of the simulator sees, reported with
// tracing off. Every workload reports all of them; README.md says what
// each means on each workload.
var endToEnd = []decl{
	{"device_sim_hours_per_s", "dsh/s"},
	{"alloc_kb_per_device", "kB"},
	{"jobs_per_s", "1/s"},
	{"hit_job_p50_ms", "ms"},
	{"cold_job_p50_ms", "ms"},
	{"cold_job_p90_ms", "ms"},
	{"alloc_kb_per_job", "kB"},
	{"setup_s", "s"},
}

// jobKinds are the jobs plane's spec kinds, in the order per-kind
// metrics are listed.
var jobKinds = []string{"scenario", "fleet", "corpus"}

// cpuLayers are the layers the CPU profile's leaf frames fold into.
var cpuLayers = []string{
	"sim", "hw", "core", "accounting", "check", "framework", "device",
	"scenario", "corpus", "fleet", "powersig", "obsv", "telemetry",
	"trace", "jobs", "encoding_json", "math_rand", "net", "runtime", "other",
}

// spanLayers are the layers the benchmark's own spans are tagged with;
// self time is reported per layer as a share of all span time.
var spanLayers = []string{"fleet", "device", "scenario", "corpus", "engine", "powersig", "jobs", "http"}

// perLayer are the traced run's metrics. A layer a workload bypasses
// reads 0 there.
var perLayer = func() []decl {
	d := []decl{
		{"device.new_us", "us"},
		{"scenario.populate_us", "us"},
		{"corpus.generate_us", "us"},
		{"corpus.apply_us", "us"},
		{"sim.events_per_dsh", "count"},
		{"sim.ns_per_event", "ns"},
		{"acct.attributions_per_dsh", "count"},
		{"hw.power_state_changes_per_dsh", "count"},
		{"hw.battery_updates_per_dsh", "count"},
		{"activity.transitions_per_dsh", "count"},
		{"powersig.samples_per_device", "count"},
		{"powersig.train_us", "us"},
		{"powersig.classify_us", "us"},
		{"powersig.share", "ratio"},
		{"fleet.horizon_us", "us"},
		{"fleet.idle_share", "ratio"},
		{"gc.cpu_share", "ratio"},
		{"gc.cycles_per_kdevice", "count"},
		{"jobs.admit_ms", "ms"},
		{"jobs.fetch_ms", "ms"},
		{"jobs.artifact_kb", "kB"},
		{"jobs.hit_p99_ms", "ms"},
		{"jobs.hit_ratio", "ratio"},
		{"jobs.duplicate_runs", "count"},
		{"jobs.evictions", "count"},
		{"jobs.rejected", "count"},
		{"trace.overhead_pct", "%"},
		{"trace.spans", "count"},
	}
	for _, k := range jobKinds {
		d = append(d,
			decl{"jobs.queue_wait_p50_ms." + k, "ms"},
			decl{"jobs.queue_wait_p90_ms." + k, "ms"},
			decl{"jobs.run_p50_ms." + k, "ms"})
	}
	for _, l := range cpuLayers {
		d = append(d, decl{"cpu." + l, "ratio"})
	}
	for _, l := range spanLayers {
		d = append(d, decl{"self_share." + l, "ratio"})
	}
	return d
}()

var metricUnits = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(append([]decl{}, endToEnd...), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()

// zeroPerLayer pre-fills every per-layer metric with 0 so layers a
// workload bypasses still appear.
func zeroPerLayer(r *result) {
	for _, d := range perLayer {
		r.set(d.name, 0)
	}
}

// quantile is the nearest-rank quantile of xs (q in [0, 1]); 0 for an
// empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
