package hw

import (
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/sim"
)

// Steady-state flushes must not allocate: the interval table, the UID
// registry rows and every scratch buffer are warmed by the first flush
// and reused verbatim afterwards. This is the pin for the dense-table
// rework — a regression here is the old per-flush map churn coming back.
func TestFlushSteadyStateAllocs(t *testing.T) {
	e := sim.NewEngine(1)
	b, err := NewBattery(1e12)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMeter(e.Now, Nexus4(), b)
	if err != nil {
		t.Fatal(err)
	}
	var sunk float64
	m.AddSink(SinkFunc(func(iv Interval) {
		iv.EachApp(func(_ app.UID, u *UsageRow) { sunk += u.Total() })
		sunk += iv.ScreenJ + iv.SystemJ
	}))
	m.SetScreen(true)
	m.SetCPUUtil(10001, 0.5)
	m.SetCPUUtil(10002, 0.25)
	if err := m.Hold(Camera, 10003); err != nil {
		t.Fatal(err)
	}

	// Warm-up: first flush grows the table, registry and scratch space.
	if err := e.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	m.Flush()

	avg := testing.AllocsPerRun(100, func() {
		if err := e.RunFor(time.Second); err != nil {
			t.Fatal(err)
		}
		m.Flush()
	})
	if avg != 0 {
		t.Fatalf("steady-state flush allocates %.1f objects, want 0", avg)
	}
	if sunk == 0 {
		t.Fatal("sink saw no energy — the flush loop measured nothing")
	}
}

// The borrow contract: the interval handed to a sink is backed by ONE
// reused table, so a sink that retains it without Clone() watches its
// rows change under the next flush, while a Clone() stays stable.
func TestSinkRetentionRequiresClone(t *testing.T) {
	e := sim.NewEngine(1)
	b, err := NewBattery(1e12)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMeter(e.Now, Nexus4(), b)
	if err != nil {
		t.Fatal(err)
	}
	var borrowed, cloned Interval
	flushes := 0
	m.AddSink(SinkFunc(func(iv Interval) {
		flushes++
		if flushes == 1 {
			borrowed = iv       // violates the contract on purpose
			cloned = iv.Clone() // the sanctioned way to retain
		}
	}))

	m.SetCPUUtil(10001, 0.8)
	if err := e.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	firstJ := cloned.AppJ(10001)
	if firstJ <= 0 {
		t.Fatalf("clone captured no energy (%v)", firstJ)
	}
	if got := borrowed.AppJ(10001); got != firstJ {
		t.Fatalf("borrowed and clone disagree before the next flush: %v vs %v", got, firstJ)
	}

	// A different workload shape makes the next flush rewrite the shared
	// storage the borrowed interval still points at.
	m.SetCPUUtil(10001, 0.1)
	if err := e.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	m.Flush()

	if got := cloned.AppJ(10001); got != firstJ {
		t.Fatalf("clone changed after the next flush: %v vs %v", got, firstJ)
	}
	if got := borrowed.AppJ(10001); got == firstJ {
		t.Fatal("retained borrowed interval kept its values across a flush — the contract test is vacuous")
	}
}

// The check subsystem audits the aggregator on every lifecycle
// transition, and every transition re-sums a UID's CPU demand: once
// their scratch has grown, replacing an existing entry's demand and a
// full audit must not allocate.
func TestAggregatorSteadyStateAllocs(t *testing.T) {
	_, _, g := aggFixture(t)
	keys := []*int{new(int), new(int), new(int), new(int)}
	for i, k := range keys {
		if err := g.Set(k, app.UID(10001+i%2), Demand{CPUUtil: 0.1 * float64(i+1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Audit(); err != nil {
		t.Fatal(err)
	}
	step := 0
	set := testing.AllocsPerRun(100, func() {
		step++
		k := keys[step%len(keys)]
		if err := g.Set(k, app.UID(10001+step%len(keys)%2), Demand{CPUUtil: float64(step%7) / 10}); err != nil {
			t.Fatal(err)
		}
	})
	if set != 0 {
		t.Fatalf("steady-state Set allocates %.1f objects, want 0", set)
	}
	audit := testing.AllocsPerRun(100, func() {
		if err := g.Audit(); err != nil {
			t.Fatal(err)
		}
	})
	if audit != 0 {
		t.Fatalf("Audit allocates %.1f objects, want 0", audit)
	}
}
