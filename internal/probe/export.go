package probe

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// jsonlEvent is the JSONL wire form of an Event. internal/trace decodes it
// back; keep both sides in sync (TestEventsJSONLRoundTrip pins the
// symmetry).
type jsonlEvent struct {
	Cycle uint64 `json:"cycle"`
	Kind  string `json:"kind"`
	Node  int32  `json:"node"`
	Loc   int32  `json:"loc"`
	Flow  int32  `json:"flow"`
	Seq   uint64 `json:"seq,omitempty"`
	Arg   uint64 `json:"arg"`
}

// jsonlMeta is the header line of a truncated JSONL dump. It has no "kind"
// key, so line-oriented consumers filtering on "kind" skip it naturally.
type jsonlMeta struct {
	Meta    string `json:"meta"`
	Dropped uint64 `json:"dropped"`
	Note    string `json:"note"`
}

// WriteEventsJSONL writes one JSON object per line per event, in emission
// order. dropped is the tracer's overwritten-event count; when non-zero a
// meta header line records that the dump is the retained tail, not the full
// stream.
func WriteEventsJSONL(w io.Writer, events []Event, dropped uint64) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if dropped > 0 {
		if err := enc.Encode(jsonlMeta{Meta: "probe", Dropped: dropped,
			Note: "ring overwrote the oldest events; this dump is the retained tail"}); err != nil {
			return err
		}
	}
	for _, e := range events {
		if err := enc.Encode(jsonlEvent{
			Cycle: e.Cycle, Kind: e.Kind.String(),
			Node: e.Node, Loc: e.Loc, Flow: e.Flow, Seq: e.Seq, Arg: e.Arg,
		}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteSeriesCSV writes every time series in long form: series,cycle,value.
func WriteSeriesCSV(w io.Writer, series []Series) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "series,cycle,value"); err != nil {
		return err
	}
	for _, s := range series {
		for _, pt := range s.Samples {
			if _, err := fmt.Fprintf(bw, "%s,%d,%g\n", s.Name, pt.Cycle, pt.Value); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// traceEvent is one entry of the Chrome trace_event format ("JSON Array
// Format" wrapped in an object), which Perfetto and chrome://tracing load
// directly. Simulation cycles map to microseconds one-to-one.
type traceEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	PID   int32          `json:"pid"`
	TID   int32          `json:"tid,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent   `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// WriteChromeTrace writes events as thread-scoped instant events (pid =
// node, tid = location) and series as counter tracks, producing a file
// loadable in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
// dropped (the tracer's overwritten-event count) is recorded in otherData
// so a truncated trace is distinguishable from a complete one.
func WriteChromeTrace(w io.Writer, events []Event, series []Series, dropped uint64) error {
	tf := traceFile{
		TraceEvents:     make([]traceEvent, 0, len(events)+16),
		DisplayTimeUnit: "ms",
		OtherData: map[string]any{
			"source":         "loft probe layer",
			"time_unit":      "1 ts = 1 cycle",
			"dropped_events": dropped,
		},
	}
	for _, e := range events {
		pid := e.Node
		if pid < 0 {
			pid = 0
		}
		te := traceEvent{
			Name:  e.Kind.String(),
			Phase: "i",
			TS:    float64(e.Cycle),
			PID:   pid,
			TID:   e.Loc + 1, // tid 0 is reserved; loc -1 maps to 0-offset 0
			Scope: "t",
			Args:  map[string]any{"arg": e.Arg},
		}
		if e.Flow >= 0 {
			te.Args["flow"] = e.Flow
		}
		if e.Seq != 0 {
			te.Args["seq"] = e.Seq
		}
		tf.TraceEvents = append(tf.TraceEvents, te)
	}
	for _, s := range series {
		for _, pt := range s.Samples {
			tf.TraceEvents = append(tf.TraceEvents, traceEvent{
				Name:  s.Name,
				Phase: "C",
				TS:    float64(pt.Cycle),
				PID:   0,
				Args:  map[string]any{"value": pt.Value},
			})
		}
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(tf); err != nil {
		return err
	}
	return bw.Flush()
}
