package telemetry

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

func gaugeValue(t *testing.T, s *Snapshot, name string) float64 {
	t.Helper()
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	t.Fatalf("gauge %q not in snapshot", name)
	return 0
}

// TestDroppedAndCapacityGauges: ring overflow must be visible from the
// metrics surface alone (the obsv /metrics endpoint), not only via the
// Dropped() accessor.
func TestDroppedAndCapacityGauges(t *testing.T) {
	r := New(Options{EventCapacity: 4})
	for i := 0; i < 7; i++ {
		logKernel(r, sim.Time(i), fmt.Sprintf("e%d", i), i)
	}
	s := r.Metrics().Snapshot()
	if got := gaugeValue(t, s, "telemetry.ring_capacity"); got != 4 {
		t.Fatalf("ring_capacity = %v, want 4", got)
	}
	if got := gaugeValue(t, s, "telemetry.events_dropped"); got != 3 {
		t.Fatalf("events_dropped = %v, want 3 (7 recorded into a 4-ring)", got)
	}
	if r.Dropped() != 3 {
		t.Fatalf("Dropped() = %d, want 3", r.Dropped())
	}

	// More overflow moves the gauge on the next snapshot.
	logKernel(r, sim.Time(7), "e7", 7)
	s = r.Metrics().Snapshot()
	if got := gaugeValue(t, s, "telemetry.events_dropped"); got != 4 {
		t.Fatalf("events_dropped after one more = %v, want 4", got)
	}
}

// TestDisabledRingGauges: a metrics-only recorder (negative capacity)
// reports zero retained capacity and counts every event as dropped —
// nothing is retained, and the metrics surface says so.
func TestDisabledRingGauges(t *testing.T) {
	r := New(Options{EventCapacity: -1})
	logKernel(r, 0, "e", 0)
	s := r.Metrics().Snapshot()
	if got := gaugeValue(t, s, "telemetry.ring_capacity"); got != 0 {
		t.Fatalf("ring_capacity = %v, want 0", got)
	}
	if got := gaugeValue(t, s, "telemetry.events_dropped"); got != 1 {
		t.Fatalf("events_dropped = %v, want 1 (metrics-only rings retain nothing)", got)
	}
}
