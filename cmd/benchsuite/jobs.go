package main

import (
	"fmt"
	"time"

	"repro/internal/corpus"
	"repro/internal/jobs"
)

// jobsSpeedupGate: a cached resubmission must be at least this many
// times faster than the cold run of the same batch. The cache is a map
// lookup against a full fleet simulation, so 50x is a floor, not a
// stretch — falling under it means the control plane grew per-submit
// overhead that defeats its own caching.
const jobsSpeedupGate = 50.0

// defaultJobsReps: min-over-reps denoises the wall clocks the same way
// the fleet and telemetry studies do.
const defaultJobsReps = 3

// jobsArtifact is the BENCH_jobs.json schema: control-plane throughput
// cold vs cached over one batch of scenario jobs (one per corpus cell).
type jobsArtifact struct {
	Jobs             int     `json:"jobs"`
	Reps             int     `json:"reps"`
	ColdMS           float64 `json:"cold_ms"`
	CachedMS         float64 `json:"cached_ms"`
	ColdJobsPerSec   float64 `json:"cold_jobs_per_sec"`
	CachedJobsPerSec float64 `json:"cached_jobs_per_sec"`
	Speedup          float64 `json:"speedup"`
	HitRate          float64 `json:"hit_rate"`
	SpeedupGate      float64 `json:"speedup_gate"`
	GatePass         bool    `json:"gate_pass"`
}

// jobsStudySpecs is the study batch: one scenario job per corpus cell
// at the minimum horizon — 16 distinct content addresses.
func jobsStudySpecs() []jobs.Spec {
	cells := corpus.Cells()
	specs := make([]jobs.Spec, len(cells))
	for i, c := range cells {
		specs[i] = jobs.Spec{
			Kind:    jobs.KindScenario,
			Cell:    c.String(),
			Seed:    int64(100 + i),
			Horizon: jobs.Duration(time.Hour),
		}
	}
	return specs
}

// jobsBatch submits every spec to m and waits for all of them,
// returning the wall time and whether every job came from the cache.
func jobsBatch(m *jobs.Manager, specs []jobs.Spec) (time.Duration, bool, error) {
	start := time.Now()
	handles := make([]*jobs.Job, len(specs))
	for i, s := range specs {
		j, err := m.Submit(s)
		if err != nil {
			return 0, false, fmt.Errorf("submit %s: %w", s.Cell, err)
		}
		handles[i] = j
	}
	allCached := true
	for _, j := range handles {
		<-j.Done()
		st := j.Status()
		if st.State != jobs.StateDone {
			return 0, false, fmt.Errorf("job %s (%s): %s %s", j.ID, j.Spec.Cell, st.State, st.Error)
		}
		if !st.Cached {
			allCached = false
		}
	}
	return time.Since(start), allCached, nil
}

// jobsStudyRun measures the batch cold (fresh manager, empty cache)
// and cached (immediate resubmission), min-over-reps, and checks the
// speedup gate. The queue is sized to the batch so the study measures
// execution, not backpressure.
func jobsStudyRun(reps int) (jobsArtifact, error) {
	if reps <= 0 {
		reps = defaultJobsReps
	}
	specs := jobsStudySpecs()
	var coldMin, cachedMin time.Duration
	var hitRate float64
	for r := 0; r < reps; r++ {
		m := jobs.NewManager(jobs.Options{QueueDepth: len(specs)})
		cold, cached0, err := jobsBatch(m, specs)
		if err != nil {
			m.Close()
			return jobsArtifact{}, err
		}
		if cached0 {
			m.Close()
			return jobsArtifact{}, fmt.Errorf("cold batch reported cached on a fresh manager")
		}
		warm, cached1, err := jobsBatch(m, specs)
		if err != nil {
			m.Close()
			return jobsArtifact{}, err
		}
		if !cached1 {
			m.Close()
			return jobsArtifact{}, fmt.Errorf("resubmitted batch missed the cache")
		}
		cs := m.CacheStats()
		hitRate = float64(cs.Hits) / float64(cs.Hits+cs.Misses)
		m.Close()
		if r == 0 || cold < coldMin {
			coldMin = cold
		}
		if r == 0 || warm < cachedMin {
			cachedMin = warm
		}
	}

	coldMS := float64(coldMin) / float64(time.Millisecond)
	cachedMS := float64(cachedMin) / float64(time.Millisecond)
	art := jobsArtifact{
		Jobs:             len(specs),
		Reps:             reps,
		ColdMS:           coldMS,
		CachedMS:         cachedMS,
		ColdJobsPerSec:   float64(len(specs)) / coldMin.Seconds(),
		CachedJobsPerSec: float64(len(specs)) / cachedMin.Seconds(),
		Speedup:          coldMS / cachedMS,
		HitRate:          hitRate,
		SpeedupGate:      jobsSpeedupGate,
	}
	art.GatePass = art.Speedup >= jobsSpeedupGate
	fmt.Printf("=== Jobs control plane: cold vs content-addressed cache (%d jobs, min over %d reps) ===\n",
		art.Jobs, art.Reps)
	fmt.Printf("cold    %9.2fms  %8.1f jobs/s\n", art.ColdMS, art.ColdJobsPerSec)
	fmt.Printf("cached  %9.2fms  %8.1f jobs/s\n", art.CachedMS, art.CachedJobsPerSec)
	fmt.Printf("speedup %.0fx (gate >= %.0fx) pass=%v, hit rate %.2f\n",
		art.Speedup, art.SpeedupGate, art.GatePass, art.HitRate)
	if !art.GatePass {
		return art, fmt.Errorf("jobs cache speedup %.1fx under the %.0fx gate", art.Speedup, jobsSpeedupGate)
	}
	return art, nil
}

// jobsCompare reruns the study at the committed shape for the
// -benchcmp gate: the cold wall must not regress and the speedup gate
// must still hold. The cached wall is microseconds and too noisy for a
// percentage budget; the speedup gate covers it with margin.
func jobsCompare(row rowFunc) error {
	var old jobsArtifact
	if err := readArtifact("BENCH_jobs.json", &old); err != nil {
		return err
	}
	fresh, err := jobsStudyRun(old.Reps)
	if err != nil {
		return err
	}
	row("jobs/cold", "ms", fresh.ColdMS, old.ColdMS)
	return nil
}
