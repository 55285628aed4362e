package obsv

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/trace"
)

// traceSummary fabricates a distinct live-feed summary for publish i.
func traceSummary(i int) *trace.Summary {
	return &trace.Summary{
		Root:  trace.RootID(fmt.Sprintf("stream-%d", i)),
		Name:  "POST /jobs",
		State: "done",
	}
}

// TestTraceStreamStalledSubscriber is the broker-stress satellite: a
// stalled /trace subscriber under a live trace stream is dropped (and
// counted) after its miss budget, while a fast subscriber on the same
// broker receives every frame undisturbed, and the drop surfaces on
// /metrics. Runs under -race in the Makefile's race gate.
func TestTraceStreamStalledSubscriber(t *testing.T) {
	s := NewServer()
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()

	// A real HTTP subscriber keeps the stream live end to end; it reads
	// continuously and must see trace frames despite the stalled peer.
	httpCtx, httpCancel := context.WithCancel(context.Background())
	defer httpCancel()
	req, _ := http.NewRequestWithContext(httpCtx, "GET", "http://"+addr+"/trace/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	httpFrames := make(chan string, 8)
	var httpTraces atomic.Int64 // trace frames the HTTP reader has parsed
	go func() {
		defer close(httpFrames)
		br := bufio.NewReader(resp.Body)
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				return
			}
			if strings.HasPrefix(line, "event: ") {
				ev := strings.TrimSpace(strings.TrimPrefix(line, "event: "))
				if ev == "trace" {
					httpTraces.Add(1)
				}
				select {
				case httpFrames <- ev:
				default:
				}
			}
		}
	}()
	// The initial replay frame proves the subscription is fully live
	// before the storm starts.
	select {
	case ev := <-httpFrames:
		if ev != "state" {
			t.Fatalf("initial frame event = %q, want state", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no initial state frame on /trace/events")
	}

	// One stalled subscriber (never drains) and one fast subscriber
	// (drained in lockstep with each publish, so delivery to it is
	// guaranteed, not timing-dependent). The storm also waits for the
	// HTTP reader to parse each frame: unpaced, a descheduled reader
	// falls a whole buffer behind and is dropped alongside the stalled
	// peer.
	stalled := s.traceSSE.Subscribe()
	fast := s.traceSSE.Subscribe()
	total := sseSubBuffer + sseMaxMisses
	for i := 0; i < total; i++ {
		s.PublishTrace(traceSummary(i))
		select {
		case <-fast:
		case <-time.After(5 * time.Second):
			t.Fatalf("fast subscriber starved at frame %d", i)
		}
		for deadline := time.Now().Add(5 * time.Second); httpTraces.Load() <= int64(i); {
			if time.Now().After(deadline) {
				t.Fatalf("HTTP subscriber read %d of %d trace frames", httpTraces.Load(), i+1)
			}
			time.Sleep(10 * time.Microsecond)
		}
	}
	if got := s.traceSSE.Dropped(); got != 1 {
		t.Fatalf("Dropped() = %d after %d frames against a stalled subscriber, want 1", got, total)
	}
	// The drop is visible to any other scraper. Checked before the
	// concurrent burst below: that burst outruns the live HTTP reader's
	// buffer, so whether it drops that reader too depends on scheduling.
	if got, want := droppedOnMetrics(t, addr), "obsv_sse_dropped_subscribers 1"; got != want {
		t.Fatalf("/metrics reports %q, want %q", got, want)
	}
	// The stalled channel was closed after its buffered backlog.
	n := 0
	for range stalled {
		n++
	}
	if n != sseSubBuffer {
		t.Fatalf("stalled subscriber drained %d buffered frames, want %d", n, sseSubBuffer)
	}
	s.traceSSE.Unsubscribe(fast)

	// The HTTP subscriber rode out the storm: it must have seen live
	// trace frames (not just the initial state).
	sawTrace := false
	deadline := time.After(5 * time.Second)
	for !sawTrace {
		select {
		case ev, ok := <-httpFrames:
			if !ok {
				t.Fatal("HTTP trace stream closed during the storm")
			}
			sawTrace = ev == "trace"
		case <-deadline:
			t.Fatal("HTTP subscriber never saw a trace frame")
		}
	}

	// Concurrent publishers against the live stream: exercises the
	// broker's locking under -race; the HTTP reader keeps draining.
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 32; i++ {
				s.PublishTrace(traceSummary(1000 + p*100 + i))
			}
		}(p)
	}
	wg.Wait()

	// However the burst went, /metrics agrees with the broker.
	if got, want := droppedOnMetrics(t, addr), fmt.Sprintf("obsv_sse_dropped_subscribers %d", s.traceSSE.Dropped()); got != want {
		t.Fatalf("/metrics reports %q after the burst, want %q", got, want)
	}
}

// droppedOnMetrics scrapes /metrics and returns its
// obsv_sse_dropped_subscribers sample line ("" when absent).
func droppedOnMetrics(t *testing.T, addr string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(prom), "\n") {
		if strings.HasPrefix(line, "obsv_sse_dropped_subscribers ") {
			return line
		}
	}
	return ""
}
