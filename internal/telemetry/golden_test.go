package telemetry_test

// End-to-end golden tests: a real device runs a paper scene with the
// recorder attached, and the exported artifacts must be valid and
// byte-identical across runs — the telemetry analog of the repo's
// determinism guarantee for energy ledgers.

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/accounting"
	"repro/internal/device"
	"repro/internal/scenario"
	"repro/internal/telemetry"
)

// runScene runs scene #1 with a fresh recorder and returns it.
func runScene(t *testing.T) *telemetry.Recorder {
	t.Helper()
	rec := telemetry.New(telemetry.Options{})
	runSceneOn(t, rec, (*scenario.World).Scene1MessageFilm)
	return rec
}

// runSceneOn runs scene on a new world wired to rec.
func runSceneOn(t *testing.T, rec *telemetry.Recorder, scene func(*scenario.World) error) {
	t.Helper()
	w, err := scenario.NewWorld(device.Config{
		EAndroid:  true,
		Policy:    accounting.BatteryStats,
		Telemetry: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := scene(w); err != nil {
		t.Fatal(err)
	}
}

// simEvents counts the KindSimEvent records rec retains.
func simEvents(rec *telemetry.Recorder) int {
	n := 0
	for _, ev := range rec.Events() {
		if ev.Kind == telemetry.KindSimEvent {
			n++
		}
	}
	return n
}

// TestSharedRecorderLogsEveryWorld: worlds built one after another on
// one recorder (eandroid-sim -exp all) must each log their kernel
// events, not only the first world's engine. The second world on a
// shared recorder records exactly as many as it does on a fresh one.
func TestSharedRecorderLogsEveryWorld(t *testing.T) {
	big := telemetry.Options{EventCapacity: 1 << 20}
	shared := telemetry.New(big)
	runSceneOn(t, shared, (*scenario.World).Scene1MessageFilm)
	first := simEvents(shared)
	attack := func(w *scenario.World) error { return w.Attack4InterruptQuit(10 * time.Minute) }
	runSceneOn(t, shared, attack)
	second := simEvents(shared) - first

	fresh := telemetry.New(big)
	runSceneOn(t, fresh, attack)
	want := simEvents(fresh)
	if first == 0 || want == 0 {
		t.Fatalf("scenes logged no kernel events (first %d, fresh %d)", first, want)
	}
	if second != want {
		t.Fatalf("second world on a shared recorder logged %d kernel events, want %d (as on a fresh recorder)", second, want)
	}
}

func TestSceneProducesAllEventKinds(t *testing.T) {
	rec := runScene(t)
	if rec.Total() == 0 {
		t.Fatal("scene recorded no events")
	}
	kinds := make(map[telemetry.Kind]int)
	for _, ev := range rec.Events() {
		kinds[ev.Kind]++
	}
	for _, k := range []telemetry.Kind{
		telemetry.KindSimEvent, telemetry.KindLifecycle, telemetry.KindPowerState,
		telemetry.KindBattery, telemetry.KindAttribution,
	} {
		if kinds[k] == 0 {
			t.Errorf("no %s events recorded (got %v)", k, kinds)
		}
	}
}

func TestTraceExportGolden(t *testing.T) {
	var first []byte
	for run := 0; run < 2; run++ {
		rec := runScene(t)
		var buf bytes.Buffer
		if err := telemetry.WriteTrace(&buf, 0, rec.Events()); err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = append([]byte(nil), buf.Bytes()...)
			// Valid trace-event JSON: a non-empty array of events.
			var tes []json.RawMessage
			if err := json.Unmarshal(first, &tes); err != nil {
				t.Fatalf("trace.json is not valid JSON: %v", err)
			}
			if len(tes) == 0 {
				t.Fatal("trace.json has no events")
			}
			continue
		}
		if !bytes.Equal(first, buf.Bytes()) {
			t.Fatal("trace.json differs between identical runs")
		}
	}
}

func TestMetricsDumpGolden(t *testing.T) {
	a := runScene(t).Metrics().Snapshot().Text()
	b := runScene(t).Metrics().Snapshot().Text()
	if a == "" {
		t.Fatal("metrics dump is empty")
	}
	if a != b {
		t.Fatalf("metrics dump differs between identical runs:\n%s\nvs\n%s", a, b)
	}
}

func TestJSONLExportGolden(t *testing.T) {
	var a, b bytes.Buffer
	if err := telemetry.WriteJSONL(&a, runScene(t).Events()); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WriteJSONL(&b, runScene(t).Events()); err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("events.jsonl differs between identical runs (or is empty)")
	}
}
