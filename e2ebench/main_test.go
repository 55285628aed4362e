package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/jobs"
)

// tinyConfig shrinks every workload so a run takes well under a second.
func tinyConfig(t *testing.T, workload string) config {
	cfg := defaultConfig()
	cfg.workload = workload
	cfg.seconds = 0.05
	cfg.outDir = t.TempDir()
	cfg.refPath = filepath.Join("testdata", "reference.json")
	cfg.popDevices = 8
	cfg.sigDevices = 4
	cfg.setupReps = 1
	cfg.renderReps = 2
	cfg.jobsUniverse = len(jobKinds) * 16 // every kind × cell once
	cfg.epochRequests = 64
	return cfg
}

type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runTiny runs cfg and decodes the contract line (the last stdout line).
func runTiny(t *testing.T, cfg config) summary {
	t.Helper()
	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var s summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatalf("%s: last line is not the result object: %v\n%s", cfg.workload, err, out.String())
	}
	return s
}

func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	for _, traced := range []bool{false, true} {
		want := endToEnd
		if traced {
			want = perLayer
		}
		for _, w := range workloadNames() {
			cfg := tinyConfig(t, w)
			cfg.trace = traced
			s := runTiny(t, cfg)
			if !s.Correct || s.Failed != 0 || s.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w, traced, s.Correct, s.Attempted, s.Failed)
			}
			if len(s.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w, traced, len(s.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := s.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w, traced, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s traced=%v: %s unit %q, want %q", w, traced, d.name, m.Unit, d.unit)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.name, m.Value)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatchesProgram holds BENCHMARK.json to what the
// program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program %s", got, want)
	}
	for label, pair := range map[string]struct {
		json []struct{ Name, Unit string }
		prog []decl
	}{"end_to_end": {bj.EndToEnd, endToEnd}, "per_layer": {bj.PerLayer, perLayer}} {
		if len(pair.json) != len(pair.prog) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", label, len(pair.json), len(pair.prog))
			continue
		}
		for i, d := range pair.prog {
			if pair.json[i].Name != d.name || pair.json[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", label, i, pair.json[i].Name, pair.json[i].Unit, d.name, d.unit)
			}
		}
	}
}

// corruptReference writes a copy of the committed reference with edit
// applied and returns its path.
func corruptReference(t *testing.T, edit func(*reference)) string {
	t.Helper()
	ref, err := loadReference(filepath.Join("testdata", "reference.json"))
	if err != nil {
		t.Fatal(err)
	}
	edit(ref)
	path := filepath.Join(t.TempDir(), "reference.json")
	if err := ref.save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCorruptReferenceFailsGate(t *testing.T) {
	wrong := strings.Repeat("0", 64)
	for _, w := range workloadNames() {
		cfg := tinyConfig(t, w)
		cfg.refPath = corruptReference(t, func(ref *reference) {
			for _, what := range []string{"summary", "verdicts"} {
				ref.Fleet[fleetRefKey(w, cfg.popDevices, cfg.seed, what)] = wrong
				ref.Fleet[fleetRefKey(w, cfg.sigDevices, cfg.seed, what)] = wrong
			}
			for k := range ref.Jobs {
				ref.Jobs[k] = wrong[:jobRefLen]
			}
		})
		if s := runTiny(t, cfg); s.Correct {
			t.Errorf("%s: run with a corrupted reference digest reported correct", w)
		}
	}
}

func TestCorruptArtifactFailsGate(t *testing.T) {
	m := jobs.NewManager(jobs.Options{})
	defer m.Close()
	j, err := m.Submit(jobUniverse(1)[0])
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	arts, ok := j.Artifacts()
	if !ok {
		t.Fatalf("job did not finish: %s", j.Status().Error)
	}
	ref, err := loadReference(filepath.Join("testdata", "reference.json"))
	if err != nil {
		t.Fatal(err)
	}
	corrupt := map[string][]byte{}
	for name, b := range arts.Files {
		corrupt[name] = append([]byte(nil), b...)
	}
	corrupt["summary.json"][0] ^= 1

	g := newJobGate(ref)
	if p := g.check(j.Key, false, arts.Files); p != "" {
		t.Fatalf("true artifacts fail the gate: %s", p)
	}
	if p := g.check(j.Key, true, corrupt); p == "" {
		t.Error("a corrupted artifact passed the reference check")
	}
	// A key the reference lacks: a cached answer must still equal the
	// cold bytes fetched first.
	g = newJobGate(&reference{})
	if p := g.check(j.Key, false, arts.Files); p != "" {
		t.Fatalf("first fetch fails the gate: %s", p)
	}
	if p := g.check(j.Key, true, corrupt); p == "" {
		t.Error("a cached artifact differing from its cold bytes passed the gate")
	}
}
