package sim

import (
	"fmt"
	"math"
)

// Lane is a lazy periodic clock. It ticks every period, in exactly the
// order a Ticker with the same start would fire relative to real
// events, but it schedules nothing: the engine counts the ticks a
// dispatch passes over in O(1), and the owner collects them with Take
// when it needs them. A sampler whose signal only changes at events it
// hears about (meter changes, installs) can then fold many ticks at
// once instead of waking the engine every period.
//
// Tie rule. A Ticker arms tick t+P when tick t fires, drawing the
// engine's seq counter at that moment, and an event at instant t+P
// fires before that tick iff its seq is lower. A lane keeps the next
// tick as (nextAt, nextSeq) without consuming a seq number, so real
// events keep their relative order, and before each real event
// (at, seq) is dispatched it fires every tick with
// (nextAt, nextSeq) <= (at, seq). Each fired tick re-arms at the
// current counter, which is above every queued event's seq, so the
// rest of a quiet gap is every tick strictly before at, counted by
// division. RunUntil(h) returns with every tick at or before h fired,
// as a Ticker's would be. Step and Drain fire ticks only up to the
// events they dispatch, and a lane never keeps the queue from
// draining.
type Lane struct {
	eng    *Engine
	period Time
	// nextAt and nextSeq place the next tick in the (at, seq) dispatch
	// order.
	nextAt  Time
	nextSeq uint64
	// first and n are the fired ticks not yet taken: n ticks at first,
	// first+period, ... first+(n-1)·period.
	first   Time
	n       int
	running bool
	// next links the engine's running lanes.
	next *Lane
}

// NewLane returns a stopped lane with the given period. A period of
// zero or less panics.
func (e *Engine) NewLane(period Duration) *Lane {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive lane period %v", period))
	}
	return &Lane{eng: e, period: Time(period)}
}

// Period reports the tick spacing.
func (l *Lane) Period() Duration { return Duration(l.period) }

// Start begins ticking, first one period from now, where a Ticker
// created by Every at this moment would fire first. Starting a running
// lane is a no-op.
func (l *Lane) Start() {
	if l.running {
		return
	}
	e := l.eng
	l.running = true
	l.nextAt, l.nextSeq = e.now.Add(Duration(l.period)), e.seq
	l.next, e.lanes = e.lanes, l
}

// Stop halts ticking and discards any ticks not yet taken: take them
// first to keep them. Safe to call more than once.
func (l *Lane) Stop() {
	if !l.running {
		return
	}
	l.running = false
	l.n = 0
	for p := &l.eng.lanes; *p != nil; p = &(*p).next {
		if *p == l {
			*p, l.next = l.next, nil
			return
		}
	}
}

// Take returns the ticks fired since the last Take, as the first one's
// instant and their count (the rest follow one period apart), and
// forgets them.
func (l *Lane) Take() (first Time, n int) {
	first, n = l.first, l.n
	l.n = 0
	return first, n
}

// advance fires every tick ordered at or before (at, seq); see the tie
// rule on Lane.
func (l *Lane) advance(at Time, seq uint64) {
	if l.nextAt > at || l.nextAt == at && l.nextSeq > seq {
		return
	}
	cur := l.eng.seq
	k := Time(1)
	if d := at - l.nextAt; d >= l.period {
		k += d / l.period
		if d%l.period == 0 && cur > seq {
			k-- // the tick on at itself re-armed above seq
		}
	}
	if l.n == 0 {
		l.first = l.nextAt
	}
	l.n += int(k)
	l.nextAt += k * l.period
	l.nextSeq = cur
}

// advanceLanes fires the ticks every running lane owes before (at, seq).
func (e *Engine) advanceLanes(at Time, seq uint64) {
	for l := e.lanes; l != nil; l = l.next {
		l.advance(at, seq)
	}
}

// horizonSeq orders after every event at its instant: RunUntil's
// horizon fires the lane ticks on it.
const horizonSeq = math.MaxUint64
