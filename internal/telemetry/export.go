package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Exporters. Both event formats are deterministic byte-for-byte for a
// given event slice: field order is fixed by structs, map-valued args
// are marshalled by encoding/json in sorted key order, and floats use
// Go's shortest-exact formatting.

// ChromeEvent is one record of the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU),
// loadable in Perfetto and chrome://tracing: "M" metadata events name
// processes and threads, "X" complete events carry ts + dur, "i"
// instant events carry ts and a scope.
type ChromeEvent struct {
	Name  string  `json:"name"`
	Cat   string  `json:"cat,omitempty"`
	Ph    string  `json:"ph"`
	Pid   int     `json:"pid"`
	Tid   int     `json:"tid"`
	Ts    float64 `json:"ts,omitempty"`
	Dur   float64 `json:"dur,omitempty"`
	Scope string  `json:"s,omitempty"`
	Args  any     `json:"args,omitempty"`
}

// ChromeWriter streams ChromeEvents as one JSON array, one record per
// line, encoding each as it arrives. The first error sticks: later
// Events are skipped and Close reports it.
type ChromeWriter struct {
	bw   *bufio.Writer
	open bool // the array's "[" is written
	err  error
}

// NewChromeWriter starts a trace-event array on w.
func NewChromeWriter(w io.Writer) *ChromeWriter {
	return &ChromeWriter{bw: bufio.NewWriter(w)}
}

func (c *ChromeWriter) put(s string) {
	if c.err == nil {
		_, c.err = c.bw.WriteString(s)
	}
}

// Event appends one record to the array.
func (c *ChromeWriter) Event(ev ChromeEvent) {
	if c.err != nil {
		return
	}
	b, err := json.Marshal(ev)
	if err != nil {
		c.err = err
		return
	}
	if c.open {
		c.put(",\n")
	} else {
		c.put("[\n")
		c.open = true
	}
	if c.err == nil {
		_, c.err = c.bw.Write(b)
	}
}

// Close ends the array, flushes, and reports the first error.
func (c *ChromeWriter) Close() error {
	if !c.open {
		c.put("[\n")
	}
	c.put("\n]\n")
	if c.err == nil {
		c.err = c.bw.Flush()
	}
	return c.err
}

// WriteTrace exports events as a Chrome trace-event array of instant
// events, one thread lane per event kind, each carrying its Event
// record as args. pid labels the emitting process track (use the
// device index for fleets; 0 is fine for a single device). Timestamps
// are virtual microseconds since boot.
func WriteTrace(w io.Writer, pid int, events []Event) error {
	cw := NewChromeWriter(w)
	cw.Event(ChromeEvent{Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]any{"name": fmt.Sprintf("device-%d", pid)}})
	for k := KindSimEvent; k <= KindAnomaly; k++ {
		cw.Event(ChromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: int(k),
			Args: map[string]any{"name": k.String()}})
	}
	for i := range events {
		ev := &events[i]
		cw.Event(ChromeEvent{
			Name: ev.Name, Cat: ev.Kind.String(), Ph: "i", Pid: pid, Tid: int(ev.Kind),
			Ts:    float64(ev.T) / 1e3, // sim.Time is nanoseconds
			Scope: "t", Args: ev,
		})
	}
	return cw.Close()
}

// WriteJSONL exports events as one JSON object per line.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ExportFiles writes the recorder's retained events and metrics to the
// given paths, skipping any empty path: traceOut as Chrome trace-event
// JSON, eventsOut as JSONL, metricsOut as a plain-text metrics dump.
// This is the shared backend of the CLIs' -trace-out / -events-out /
// -metrics-out flags.
func ExportFiles(rec *Recorder, traceOut, eventsOut, metricsOut string) error {
	// write buffers each export and keeps the FIRST error from any stage
	// (emit, flush, close): a short write that only surfaces at Flush or
	// Close must not be masked by a later stage succeeding, and a Close
	// error after a failed emit must not shadow the emit error.
	write := func(path string, emit func(io.Writer) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		bw := bufio.NewWriter(f)
		err = emit(bw)
		if ferr := bw.Flush(); err == nil {
			err = ferr
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}
	if traceOut != "" {
		if err := write(traceOut, func(w io.Writer) error {
			return WriteTrace(w, 0, rec.Events())
		}); err != nil {
			return err
		}
	}
	if eventsOut != "" {
		if err := write(eventsOut, func(w io.Writer) error {
			return WriteJSONL(w, rec.Events())
		}); err != nil {
			return err
		}
	}
	if metricsOut != "" {
		if err := write(metricsOut, func(w io.Writer) error {
			_, err := io.WriteString(w, rec.Metrics().Snapshot().Text())
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}
