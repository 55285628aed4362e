// Chrome trace-event export. The writer is byte-deterministic: spans
// arrive from Tracer.Spans() in a fixed order, timestamps are virtual
// microseconds only (wall endpoints are stripped), and every event is
// marshalled by telemetry's ChromeWriter with encoding/json's stable
// field order. chrome://tracing and Perfetto both open the result.
package trace

import (
	"io"

	"repro/internal/telemetry"
)

// Thread lanes within a device process, one per phase kind so the
// lanes don't overlap (phases of one kind never nest).
const (
	laneStructural = 0
	laneMeter      = 1
	laneWatchdog   = 2
	laneWheel      = 3
)

func lane(name string) int {
	switch name {
	case PhaseMeterFlush:
		return laneMeter
	case PhaseWatchdogWindow:
		return laneWatchdog
	case PhaseKernelBatch:
		return laneWheel
	}
	return laneStructural
}

// WriteChrome writes spans as a Chrome trace JSON array. Process 0 is
// the control plane (request/job/shard lanes); process i+1 is device
// i, with one thread lane per phase kind. Timestamps and durations are
// virtual microseconds.
func WriteChrome(w io.Writer, spans []Span) error {
	cw := telemetry.NewChromeWriter(w)
	cw.Event(telemetry.ChromeEvent{
		Name: "process_name", Ph: "M", Pid: 0,
		Args: map[string]any{"name": "control-plane"},
	})
	// Control-plane thread lanes by span kind.
	ctlTid := map[string]int{KindRequest: 0, KindJob: 1, KindShard: 2}
	named := map[int]bool{}
	for _, s := range spans {
		pid, tid := 0, 0
		switch s.Kind {
		case KindDevice, KindPhase:
			pid = s.Dev + 1
			if s.Kind == KindPhase {
				tid = lane(s.Name)
			}
			if !named[pid] {
				named[pid] = true
				cw.Event(telemetry.ChromeEvent{
					Name: "process_name", Ph: "M", Pid: pid,
					Args: map[string]any{"name": s.Name},
				})
			}
		default:
			tid = ctlTid[s.Kind]
		}
		args := map[string]any{
			"id":     s.ID.String(),
			"parent": s.Parent.String(),
			"kind":   s.Kind,
		}
		if s.N != 0 {
			args["n"] = s.N
		}
		cw.Event(telemetry.ChromeEvent{
			Name: s.Name, Ph: "X", Pid: pid, Tid: tid,
			Ts:   float64(s.Start) / 1e3,
			Dur:  float64(s.End-s.Start) / 1e3,
			Args: args,
		})
	}
	return cw.Close()
}
