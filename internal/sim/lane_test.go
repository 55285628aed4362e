package sim

import (
	"math/rand"
	"testing"
	"time"
)

// laneRig is one side of the lane-versus-ticker comparison: an engine
// plus a periodic clock it can start, stop and count. Real events log
// the clock's tick count at the moment they fire.
type laneRig struct {
	e       *Engine
	start   func()
	stop    func()
	running func() bool
	count   func() int
	handles []Handle
	log     []int
	lane    *Lane // the lane side's clock, read for its next tick
}

// tickerRig counts the fires of a real Ticker.
func tickerRig(period Duration) *laneRig {
	r := &laneRig{e: NewEngine(1)}
	var t *Ticker
	n := 0
	r.start = func() {
		if t == nil {
			t = r.e.Every(period, "tick", func() { n++ })
		}
	}
	r.stop = func() {
		if t != nil {
			t.Stop()
			t = nil
		}
	}
	r.running = func() bool { return t != nil }
	r.count = func() int { return n }
	return r
}

// laneClockRig counts the ticks a Lane reports through Take.
func laneClockRig(period Duration) *laneRig {
	r := &laneRig{e: NewEngine(1)}
	l := r.e.NewLane(period)
	r.lane = l
	n := 0
	take := func() {
		_, k := l.Take()
		n += k
	}
	r.start = l.Start
	r.stop = func() {
		take()
		l.Stop()
	}
	r.running = func() bool { return l.running }
	r.count = func() int {
		take()
		return n
	}
	return r
}

// laneEvent is a scripted event: when it fires it logs the tick count,
// then schedules a zero-delay chain of chain more events, a child one
// period later, and restarts a running clock, as its fields say.
type laneEvent struct {
	chain   int
	child   bool
	restart bool
}

func (r *laneRig) schedule(at Time, ev laneEvent, period Duration) {
	var fire func(ev laneEvent) func()
	fire = func(ev laneEvent) func() {
		return func() {
			r.log = append(r.log, r.count())
			if ev.chain > 0 {
				r.e.After(0, "chain", fire(laneEvent{chain: ev.chain - 1}))
			}
			if ev.child {
				r.e.After(period, "child", fire(laneEvent{}))
			}
			if ev.restart && r.running() {
				r.stop()
				r.start()
			}
		}
	}
	r.handles = append(r.handles, r.e.Schedule(at, "script", fire(ev)))
}

// TestLaneMatchesTicker runs the lane-versus-ticker check over fixed
// seeds.
func TestLaneMatchesTicker(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		checkLaneAgainstTicker(t, seed)
	}
}

// FuzzLane runs the lane-versus-ticker check on fuzzer-chosen seeds.
func FuzzLane(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed)
	}
	f.Fuzz(checkLaneAgainstTicker)
}

// checkLaneAgainstTicker drives two engines with one random script
// drawn from seed: one carries a Ticker, the other a Lane of the same
// period. Every real event logs the tick count when it fires, and the
// counts are compared after every operation, so they must agree after
// every real dispatch and at every RunUntil slice end. Delays of 0,
// exactly P, k·P and onto tick instants exercise the (at, seq) tie
// rule; stops and restarts at arbitrary instants (from the top level
// and inside dispatch) move the lane's phase off the integer grid.
func checkLaneAgainstTicker(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	period := time.Second
	if rng.Intn(3) == 0 {
		period = Duration(1+rng.Int63n(int64(5*time.Second))) / 7 // uneven period
	}
	P := Time(period)
	rigs := [2]*laneRig{tickerRig(period), laneClockRig(period)}
	each := func(fn func(r *laneRig)) {
		for _, r := range rigs {
			fn(r)
		}
	}
	// onTick is the clock's next tick instant plus k periods (now plus
	// k periods while it is stopped). Between operations the lane has
	// fired every tick up to now, so its next tick is in the future.
	onTick := func(k int64) Time {
		if l := rigs[1].lane; l.running {
			return l.nextAt + Time(k)*P
		}
		return rigs[0].e.Now() + Time(k)*P
	}
	delay := func() Time {
		now := rigs[0].e.Now()
		switch rng.Intn(7) {
		case 0:
			return now
		case 1:
			return now + P
		case 2:
			return now + Time(1+rng.Int63n(5))*P
		case 3, 4:
			return onTick(rng.Int63n(4))
		case 5:
			return now + Time(rng.Int63n(int64(3*P)))
		default:
			return now + Time(rng.Int63n(int64(40*P)))
		}
	}

	for op := 0; op < 300; op++ {
		switch rng.Intn(9) {
		case 0, 1, 2:
			at := delay()
			ev := laneEvent{chain: rng.Intn(3) * rng.Intn(2), child: rng.Intn(4) == 0, restart: rng.Intn(12) == 0}
			each(func(r *laneRig) { r.schedule(at, ev, period) })
		case 3:
			if n := len(rigs[0].handles); n > 0 {
				i := rng.Intn(n)
				each(func(r *laneRig) { r.handles[i].Cancel() })
			}
		case 4:
			if rigs[0].running() {
				each(func(r *laneRig) { r.stop() })
			} else {
				each(func(r *laneRig) { r.start() })
			}
		case 5, 6:
			h := onTick(rng.Int63n(3))
			if rng.Intn(2) == 0 {
				h += Time(rng.Int63n(int64(P)))
			}
			each(func(r *laneRig) {
				if err := r.e.RunUntil(h); err != nil {
					t.Fatal(err)
				}
			})
		default:
			h := rigs[0].e.Now() + Time(rng.Int63n(int64(12*P)))
			each(func(r *laneRig) {
				if err := r.e.RunUntil(h); err != nil {
					t.Fatal(err)
				}
			})
		}
		a, b := rigs[0], rigs[1]
		if len(a.log) != len(b.log) {
			t.Fatalf("seed %d op %d: %d real dispatches with the ticker, %d with the lane", seed, op, len(a.log), len(b.log))
		}
		for i := range a.log {
			if a.log[i] != b.log[i] {
				t.Fatalf("seed %d op %d: real dispatch %d saw %d ticks with the ticker, %d with the lane",
					seed, op, i, a.log[i], b.log[i])
			}
		}
		if ca, cb := a.count(), b.count(); ca != cb {
			t.Fatalf("seed %d op %d at %v: ticker fired %d ticks, lane %d", seed, op, a.e.Now(), ca, cb)
		}
	}
	if rigs[0].count() == 0 || len(rigs[0].log) == 0 {
		t.Fatalf("seed %d: the script fired no ticks or no events", seed)
	}
}

// A running lane adds nothing to the queue and nothing to the trace
// log: its ticks are counted, not dispatched.
func TestLaneSchedulesNothing(t *testing.T) {
	e := NewEngine(1)
	tl := &TraceLog{}
	e.SetTraceLog(tl)
	l := e.NewLane(time.Second)
	l.Start()
	e.After(90*time.Second+time.Millisecond, "real", func() {})
	if err := e.RunFor(300 * time.Second); err != nil {
		t.Fatal(err)
	}
	if e.QueueLen() != 0 || tl.Total != 1 {
		t.Fatalf("QueueLen = %d, trace log total = %d, want 0 and 1", e.QueueLen(), tl.Total)
	}
	if first, n := l.Take(); first != Second || n != 300 {
		t.Fatalf("Take = (%v, %d), want (T+1s, 300)", first, n)
	}
	l.Stop()
	if err := e.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, n := l.Take(); n != 0 {
		t.Fatalf("stopped lane fired %d ticks", n)
	}
}
