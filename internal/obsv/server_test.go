package obsv

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/accounting"
	"repro/internal/device"
	"repro/internal/scenario"
	"repro/internal/telemetry"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestServerSmoke is the end-to-end pass the obsv-smoke make target
// mirrors: serve a finished simulation on an ephemeral port, probe
// every endpoint, read one SSE tick, shut down cleanly.
func TestServerSmoke(t *testing.T) {
	w, err := scenario.NewWorld(device.Config{
		EAndroid:  true,
		Policy:    accounting.BatteryStats,
		Telemetry: telemetry.New(telemetry.Options{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer()
	wd, err := NewWatchdog(w.Dev, WatchdogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wd.Subscribe(srv.PublishFinding)
	wd.Start()
	fc := AttachFlame(w.Dev)

	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr

	// Liveness is up before any data; readiness is not.
	if code, body := get(t, base+"/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, _ := get(t, base+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before publish = %d, want 503", code)
	}

	if err := w.ForceScreenOn(); err != nil {
		t.Fatal(err)
	}
	if err := w.Attack6WakelockScreen(90 * time.Second); err != nil {
		t.Fatal(err)
	}
	wd.Finish()
	srv.PublishSnapshot(w.Dev.Telemetry.Metrics().Snapshot())
	srv.PublishFlame(fc.Fold())

	if code, body := get(t, base+"/readyz"); code != 200 || !strings.Contains(body, "ready") {
		t.Fatalf("/readyz after publish = %d %q", code, body)
	}

	// /metrics parses as text exposition and carries the anomaly count.
	code, body := get(t, base+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	samples := parseProm(t, body)
	if samples["obsv_anomalies"] < 1 {
		t.Fatalf("obsv_anomalies = %v, want >= 1 (attack #6 ran)\n%s", samples["obsv_anomalies"], body)
	}

	// /watchdog returns the findings as JSON.
	code, body = get(t, base+"/watchdog")
	if code != 200 {
		t.Fatalf("/watchdog = %d", code)
	}
	var wp struct {
		Findings []Finding `json:"findings"`
	}
	if err := json.Unmarshal([]byte(body), &wp); err != nil {
		t.Fatalf("/watchdog JSON: %v\n%s", err, body)
	}
	if len(wp.Findings) == 0 {
		t.Fatal("/watchdog has no findings after attack #6")
	}

	// Flame endpoints.
	if code, body := get(t, base+"/flame.txt"); code != 200 || !strings.Contains(body, "screen;Screen;(display)") {
		t.Fatalf("/flame.txt = %d %q", code, body)
	}
	if code, body := get(t, base+"/flame"); code != 200 || !strings.Contains(body, "<!DOCTYPE html>") {
		t.Fatalf("/flame = %d", code)
	}

	// pprof is mounted.
	if code, _ := get(t, base+"/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}

	// One SSE tick: the initial state frame replays the findings.
	frame := readSSEFrame(t, base+"/watchdog/events")
	if !strings.HasPrefix(frame, "event: state\ndata: ") {
		t.Fatalf("SSE frame = %q", frame)
	}
	if !strings.Contains(frame, SignalDivergence) && !strings.Contains(frame, SignalDrainSpike) &&
		!strings.Contains(frame, SignalDeviceSpike) {
		t.Fatalf("SSE state frame carries no findings: %q", frame)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// readSSEFrame reads one complete SSE frame (up to the blank line) from
// a streaming endpoint, then disconnects.
func readSSEFrame(t *testing.T, url string) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var b strings.Builder
	r := bufio.NewReader(resp.Body)
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("reading SSE stream: %v (got %q)", err, b.String())
		}
		if line == "\n" {
			return b.String() + line
		}
		b.WriteString(line)
	}
}
