package telemetry

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// failWriter fails every Write after the first `allow` bytes have been
// accepted — the shape of a full disk. With allow larger than the
// payload but smaller than bufio's buffer, the failure only surfaces at
// Flush, which is exactly the path the exporters must propagate.
type failWriter struct {
	allow int
	wrote int
}

func (w *failWriter) Write(p []byte) (int, error) {
	if w.wrote+len(p) > w.allow {
		n := w.allow - w.wrote
		if n < 0 {
			n = 0
		}
		w.wrote += n
		return n, fmt.Errorf("failWriter: full after %d bytes", w.allow)
	}
	w.wrote += len(p)
	return len(p), nil
}

func exportEvents() []Event {
	return []Event{
		{T: 0, Kind: KindSimEvent, Name: "boot"},
		{T: 1e9, Kind: KindAttribution, UID: 10001, V0: 1.5},
		{T: 2e9, Kind: KindAnomaly, UID: 10001, Name: "drain-spike", To: "x", V0: 120, V1: 20},
	}
}

// TestExportersPropagateWriterErrors drives every event exporter into a
// writer that fails at various cut points — including failure only at
// the final buffered flush — and requires the error back.
func TestExportersPropagateWriterErrors(t *testing.T) {
	events := exportEvents()
	exporters := []struct {
		name string
		run  func(w *failWriter) error
	}{
		{"WriteTrace", func(w *failWriter) error { return WriteTrace(w, 0, events) }},
		{"WriteJSONL", func(w *failWriter) error { return WriteJSONL(w, events) }},
	}
	for _, ex := range exporters {
		// Full output size, to pick interesting cut points.
		probe := &failWriter{allow: 1 << 20}
		if err := ex.run(probe); err != nil {
			t.Fatalf("%s: unexpected error on roomy writer: %v", ex.name, err)
		}
		total := probe.wrote
		if total == 0 {
			t.Fatalf("%s wrote nothing", ex.name)
		}
		// Fail at first byte, mid-stream, and one byte short: the last
		// case only errors inside bufio's Flush (the exporters' payloads
		// are smaller than its buffer), which an unchecked Flush would
		// silently swallow.
		for _, allow := range []int{0, total / 2, total - 1} {
			if err := ex.run(&failWriter{allow: allow}); err == nil {
				t.Errorf("%s: writer failing after %d/%d bytes, got nil error", ex.name, allow, total)
			}
		}
	}
}

// TestExportFilesPropagatesCreateError covers the file-backed path: an
// unwritable destination must fail loudly for every output.
func TestExportFilesPropagatesCreateError(t *testing.T) {
	r := New(Options{})
	logKernel(r, 0, "boot", 0)
	bad := filepath.Join(t.TempDir(), "missing-dir", "out")
	for i, args := range [][3]string{{bad, "", ""}, {"", bad, ""}, {"", "", bad}} {
		if err := ExportFiles(r, args[0], args[1], args[2]); err == nil {
			t.Errorf("arg %d: ExportFiles into missing dir, got nil error", i)
		}
	}
}

// TestExportFilesWritesAllOutputs is the happy path: three non-empty
// files with the expected shapes.
func TestExportFilesWritesAllOutputs(t *testing.T) {
	r := New(Options{})
	logKernel(r, 0, "boot", 0)
	r.RecordAttribution(1e9, 10001, 2.5)
	dir := t.TempDir()
	trace, events, metrics := filepath.Join(dir, "t.json"), filepath.Join(dir, "e.jsonl"), filepath.Join(dir, "m.txt")
	if err := ExportFiles(r, trace, events, metrics); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]string{
		trace:   `"ph":"i"`,
		events:  `"kind"`,
		metrics: "telemetry.ring_capacity",
	} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(b), want) {
			t.Errorf("%s: missing %q in:\n%s", path, want, b)
		}
	}
}
