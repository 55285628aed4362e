package main

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/corpus"
	"repro/internal/corpus/replay"
)

// corpusArtifact is the BENCH_corpus.json schema: the full statistical
// replay result (per-cell detection and false-positive Wilson
// intervals) plus the run's wall time, so benchcmp can track both the
// separation quality and the replay's cost across PRs.
type corpusArtifact struct {
	replay.Result
	WallMS float64 `json:"wall_ms"`
}

// corpusStudyRun replays the corpus at the given shape, prints the
// summary table, and enforces the interval gates (binding only at
// reps >= replay.MinGatedReps; the zero-violation gate always binds).
// The artifact is returned even when a gate fails so CI logs carry the
// numbers.
func corpusStudyRun(opts replay.Options) (corpusArtifact, error) {
	start := time.Now()
	res, err := replay.Run(context.Background(), opts)
	if err != nil {
		return corpusArtifact{}, err
	}
	art := corpusArtifact{Result: *res, WallMS: float64(time.Since(start).Microseconds()) / 1000}
	fmt.Println(res.Render())
	fmt.Printf("corpus replay: %d cells x %d reps in %.1fms\n", len(res.Cells), res.Reps, art.WallMS)
	if fails := res.Gate(); len(fails) > 0 {
		return art, fmt.Errorf("corpus gate failed:\n  %s", strings.Join(fails, "\n  "))
	}
	return art, nil
}

// corpusOptions assembles replay options from the benchsuite flags:
// cells > 0 restricts the run to the first N canonical cells (the
// order interleaves benign and attack variants, so even a two-cell
// smoke run exercises both gates).
func corpusOptions(reps, workers, cells int, horizon time.Duration) replay.Options {
	opts := replay.Options{Reps: reps, Workers: workers, Horizon: horizon}
	if cells > 0 {
		all := corpus.Cells()
		if cells > len(all) {
			cells = len(all)
		}
		opts.Cells = all[:cells]
	}
	return opts
}

// corpusCompare is benchcmp's corpus leg: rerun the replay at the
// committed artifact's exact shape, re-enforce the statistical gates,
// and hand the wall-clock pair to the regression comparator.
func corpusCompare(row rowFunc) error {
	var old corpusArtifact
	if err := readArtifact("BENCH_corpus.json", &old); err != nil {
		return err
	}
	if len(old.Cells) == 0 {
		return fmt.Errorf("benchcmp: BENCH_corpus.json has no cells")
	}
	fresh, err := corpusStudyRun(replay.Options{
		RootSeed: old.RootSeed,
		Reps:     old.Reps,
		Horizon:  old.Horizon,
	})
	if err != nil {
		return err
	}
	// Same root seed and shape must reproduce the committed statistics
	// exactly — the replay is deterministic, so any drift is a real
	// behaviour change that belongs in a regenerated artifact.
	freshCells, _ := json.Marshal(fresh.Cells)
	oldCells, _ := json.Marshal(old.Cells)
	if string(freshCells) != string(oldCells) {
		return fmt.Errorf("benchcmp: corpus replay diverged from committed BENCH_corpus.json — regenerate it with -corpus if the change is intended")
	}
	row("corpus/replay", "ms", fresh.WallMS, old.WallMS)
	return nil
}
