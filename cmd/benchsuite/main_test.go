package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestFleetBenchWritesArtifact(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_fleet.json")
	if err := run([]string{"-fleet", "4", "-workers", "2", "-out", out}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var art fleetArtifact
	if err := json.Unmarshal(blob, &art); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if art.Devices != 4 || len(art.Runs) != 2 || !art.Deterministic {
		t.Fatalf("artifact = %+v", art)
	}
	if art.Summary.TotalDrainedJ <= 0 || art.Summary.DetectionRate != 1 {
		t.Fatalf("summary = %+v", art.Summary)
	}
}

func TestFleetBenchNoArtifact(t *testing.T) {
	if err := run([]string{"-fleet", "2", "-workers", "2", "-out", ""}); err != nil {
		t.Fatal(err)
	}
}

func TestMicroOnly(t *testing.T) {
	if err := run([]string{"-micro", "-reps", "6"}); err != nil {
		t.Fatal(err)
	}
}

func TestEnergyOnly(t *testing.T) {
	if err := run([]string{"-energy"}); err != nil {
		t.Fatal(err)
	}
}

func TestBadReps(t *testing.T) {
	if err := run([]string{"-micro", "-reps", "1"}); err == nil {
		t.Fatal("too-few reps accepted")
	}
}

func TestBadFlag(t *testing.T) {
	if err := run([]string{"-nope"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// TestOverheadStudyArtifacts runs each overhead study at one or two
// reps and checks its artifact. The wall-time gates themselves are not
// asserted (a rep or two on a loaded CI box is not a measurement), but
// a gate failure must be the only error and must still leave the
// artifact written; the artifact's keys must be exactly those of the
// committed BENCH_<study>.json, which must decode through the result
// type with no key left over; the gate thresholds must not drift; and
// each study's sanity side must hold regardless.
func TestOverheadStudyArtifacts(t *testing.T) {
	for _, tc := range []struct {
		study  string
		reps   int
		result any
		want   map[string]float64 // exact values: thresholds and sanity counts
		pos    []string           // keys that must be > 0
	}{
		{"telemetry", 1, &experiments.TelemetryOverheadResult{},
			map[string]float64{"disabled_gate_pct": 1, "enabled_gate_pct": 10}, []string{"enabled_ms", "events_recorded"}},
		{"check", 1, &experiments.CheckOverheadResult{},
			map[string]float64{"enabled_gate_pct": 5, "enabled_violations": 0, "differential_violations": 0},
			[]string{"enabled_ms", "differential_ms"}},
		{"obsv", 2, &experiments.ObsvOverheadResult{},
			map[string]float64{"disabled_gate_pct": 1}, []string{"enabled_ms", "findings", "flame_stacks"}},
		{"trace", 1, &experiments.TraceOverheadResult{},
			map[string]float64{"disabled_gate_pct": 1, "full_gate_pct": 10, "dropped_spans": 0}, []string{"sampled_ms", "full_ms", "spans"}},
	} {
		t.Run(tc.study, func(t *testing.T) {
			committed, err := os.ReadFile(filepath.Join("..", "..", "BENCH_"+tc.study+".json"))
			if err != nil {
				t.Fatal(err)
			}
			dec := json.NewDecoder(bytes.NewReader(committed))
			dec.DisallowUnknownFields()
			if err := dec.Decode(tc.result); err != nil {
				t.Fatalf("committed artifact does not decode through %T: %v", tc.result, err)
			}
			typeKeys := keySet(t, mustMarshal(t, tc.result))
			if want := keySet(t, committed); !reflect.DeepEqual(typeKeys, want) {
				t.Fatalf("%T keys %v, committed keys %v", tc.result, typeKeys, want)
			}

			out := filepath.Join(t.TempDir(), "BENCH_"+tc.study+".json")
			runErr := run([]string{"-" + tc.study, "-reps", strconv.Itoa(tc.reps), "-out", out})
			if runErr != nil && !strings.Contains(runErr.Error(), "overhead gate failed") {
				t.Fatalf("study failed outside its wall-time gates: %v", runErr)
			}
			blob, err := os.ReadFile(out)
			if err != nil {
				t.Fatalf("artifact not written (run err: %v): %v", runErr, err)
			}
			if got := keySet(t, blob); !reflect.DeepEqual(got, typeKeys) {
				t.Fatalf("artifact keys %v, committed keys %v", got, typeKeys)
			}
			var art map[string]any
			if err := json.Unmarshal(blob, &art); err != nil {
				t.Fatal(err)
			}
			if art["reps"] != float64(tc.reps) || art["baseline_ms"].(float64) <= 0 {
				t.Fatalf("artifact = %v", art)
			}
			for k, v := range tc.want {
				if art[k] != v {
					t.Errorf("%s = %v, want %v", k, art[k], v)
				}
			}
			for _, k := range tc.pos {
				if art[k].(float64) <= 0 {
					t.Errorf("%s = %v, want > 0", k, art[k])
				}
			}
		})
	}
}

func keySet(t *testing.T, blob []byte) []string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestServeFlag: -serve starts the plane and returns once the stop
// channel closes.
func TestServeFlag(t *testing.T) {
	serveStop = make(chan struct{})
	close(serveStop)
	defer func() { serveStop = nil }()
	if err := run([]string{"-energy", "-serve", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
}
