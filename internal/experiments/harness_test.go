package experiments

import (
	"errors"
	"math"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestTimeRotationsSchedule pins the one measurement protocol every
// overhead study runs: the first leg warms up once, untimed; every
// timed run sees the collector paused; rotation r starts at leg r mod n;
// rotations run in order; each leg records one wall time per round; and
// the collector setting is restored afterwards.
func TestTimeRotationsSchedule(t *testing.T) {
	const warmup = 50 * time.Millisecond
	var calls []string
	fake := func(name string) *leg {
		first := true
		return &leg{
			prep: func() { calls = append(calls, "prep:"+name) },
			run: func() error {
				calls = append(calls, name)
				if pct := debug.SetGCPercent(-1); pct != -1 {
					t.Errorf("%s ran with GC percent %d, want the collector paused", name, pct)
				}
				if first && name == "a" {
					time.Sleep(warmup)
				}
				first = false
				return nil
			},
		}
	}
	gcBefore := debug.SetGCPercent(100)
	defer debug.SetGCPercent(gcBefore)

	a, b, c := fake("a"), fake("b"), fake("c")
	x, y, z := fake("x"), fake("y"), fake("z")
	if err := timeRotations(rotation{3, []*leg{a, b}}, rotation{2, []*leg{c}}, rotation{3, []*leg{x, y, z}}); err != nil {
		t.Fatal(err)
	}
	if pct := debug.SetGCPercent(100); pct != 100 {
		t.Errorf("GC percent after the study = %d, want 100 restored", pct)
	}
	// Warm-up, then the three rotations; each run follows its prep.
	var want []string
	for _, name := range strings.Fields("a  a b b a a b  c c  x y z y z x z x y") {
		want = append(want, "prep:"+name, name)
	}
	if !slices.Equal(calls, want) {
		t.Fatalf("call order\n got %v\nwant %v", calls, want)
	}
	for _, l := range []struct {
		name   string
		leg    *leg
		rounds int
	}{{"a", a, 3}, {"b", b, 3}, {"c", c, 2}, {"x", x, 3}, {"y", y, 3}, {"z", z, 3}} {
		if len(l.leg.ms) != l.rounds {
			t.Errorf("leg %s recorded %d times, want %d", l.name, len(l.leg.ms), l.rounds)
		}
	}
	for _, ms := range a.ms {
		if ms >= float64(warmup.Milliseconds()) {
			t.Errorf("leg a timed the warm-up: %v", a.ms)
		}
	}
}

// TestTimeRotationsStopsOnError: a failing run ends the study.
func TestTimeRotationsStopsOnError(t *testing.T) {
	boom := errors.New("boom")
	n := 0
	l := &leg{run: func() error {
		n++
		if n == 3 {
			return boom
		}
		return nil
	}}
	if err := timeRotations(rotation{5, []*leg{l}}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n != 3 || len(l.ms) != 1 {
		t.Fatalf("calls %d, timed %d; want 3 calls (warm-up + 2), 1 timed", n, len(l.ms))
	}
}

// TestPairedIQM checks the gate statistic against a hand computation.
// The baseline alternates 10 and 20 ms, so only a per-round ratio sees
// the true overheads; the ratios, sorted, are 0.50 1.00 | 1.01 1.03
// 1.04 1.05 | 1.06 1.20, and the interquartile mean of the middle four
// is 1.0325, a +3.25% overhead. An untrimmed mean would read -1.375%.
func TestPairedIQM(t *testing.T) {
	base := []float64{10, 20, 10, 20, 10, 20, 10, 20}
	ratio := []float64{1.06, 0.50, 1.01, 1.03, 1.20, 1.00, 1.05, 1.04}
	x := make([]float64, len(base))
	for i := range base {
		x[i] = base[i] * ratio[i]
	}
	if got := pairedIQM(base, x); math.Abs(got-3.25) > 1e-9 {
		t.Fatalf("pairedIQM = %v, want 3.25", got)
	}
	if got := minMS(x); got != 10 {
		t.Fatalf("minMS = %v, want 10", got)
	}
}
