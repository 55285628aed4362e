package corpus

import (
	"bytes"
	"math"
	"sort"
	"testing"
	"time"

	"repro/internal/accounting"
	"repro/internal/device"
	"repro/internal/scenario"
	"repro/internal/telemetry"
)

// slicedRun is one replay's observable output.
type slicedRun struct {
	events, metrics []byte
	drainedBits     uint64
}

// runSliced replays s on a fresh recorded world with the horizon cut
// into k RunUntil slices: k-1 inert steps at the slice boundaries make
// Apply stop the engine there and issue nothing (finishing a hijack of
// a package the script never hijacked is a no-op). k == 1 is the
// script as generated.
func runSliced(t *testing.T, s *Script, k int) slicedRun {
	t.Helper()
	sliced := *s
	sliced.Steps = append([]Step(nil), s.Steps...)
	for j := 1; j < k; j++ {
		at := s.Horizon * time.Duration(j) / time.Duration(k)
		sliced.Steps = append(sliced.Steps, Step{At: at, Op: OpHijackFinish, Pkg: "slice.boundary"})
	}
	sort.SliceStable(sliced.Steps, func(a, b int) bool { return sliced.Steps[a].At < sliced.Steps[b].At })

	rec := telemetry.New(telemetry.Options{EventCapacity: 1 << 16})
	w, err := scenario.NewWorld(device.Config{
		EAndroid:  true,
		Policy:    accounting.BatteryStats,
		Seed:      s.Seed,
		Telemetry: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sliced.Apply(w); err != nil {
		t.Fatalf("%s k=%d: %v", s.Cell, k, err)
	}
	w.Dev.Flush()
	var events bytes.Buffer
	if err := telemetry.WriteJSONL(&events, rec.Events()); err != nil {
		t.Fatal(err)
	}
	return slicedRun{
		events:      events.Bytes(),
		metrics:     []byte(rec.Metrics().Snapshot().Text()),
		drainedBits: math.Float64bits(w.Dev.Battery.DrainedJ()),
	}
}

// TestRunUntilSlicingByteIdentical is the metamorphic precondition for
// checkpoint/resume: a device on a corpus script that runs its hour in
// one RunUntil per step must produce byte-identical events, metrics
// and drained energy when the hour is cut into k slices.
func TestRunUntilSlicingByteIdentical(t *testing.T) {
	for _, cell := range []Cell{
		{Archetype: ArchCommuter, Variant: VarBenign},
		{Archetype: ArchGamer, Variant: VarCoordinated},
		{Archetype: ArchIdleMostly, Variant: VarIntermittent},
	} {
		s, err := Generate(cell, 11, Params{Horizon: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		want := runSliced(t, s, 1)
		if len(want.events) == 0 {
			t.Fatalf("%s: no events recorded", cell)
		}
		for _, k := range []int{2, 7, 32} {
			got := runSliced(t, s, k)
			if !bytes.Equal(got.events, want.events) {
				t.Errorf("%s k=%d: JSONL events differ from the single-run replay", cell, k)
			}
			if !bytes.Equal(got.metrics, want.metrics) {
				t.Errorf("%s k=%d: metrics differ:\n%s\nvs\n%s", cell, k, got.metrics, want.metrics)
			}
			if got.drainedBits != want.drainedBits {
				t.Errorf("%s k=%d: DrainedJ %v, want %v", cell, k,
					math.Float64frombits(got.drainedBits), math.Float64frombits(want.drainedBits))
			}
		}
	}
}
