// Package trace is the offline half of the observability layer: the file
// names of a run directory, the decoder for the probe's JSONL event dump, a
// per-quantum latency decomposition engine that replays the event stream,
// run manifests tying a run's artifacts to its full configuration, and
// cross-run regression diffing. Command lofttrace is the CLI over this
// package; it reads run directories only.
//
// The package never touches a live simulator: every analysis consumes only
// exported files, so results are reproducible from the artifacts alone and
// the package stays inside the determinism-checked set (internal/lint).
package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"loft/internal/probe"
)

// jsonlLine is the union of the two line shapes probe.WriteEventsJSONL
// emits: the optional first-line meta header (no "kind" key) and one event
// per line after it. Pointer fields distinguish absent keys from zero
// values.
type jsonlLine struct {
	Meta    *string `json:"meta"`
	Dropped uint64  `json:"dropped"`
	Cycle   uint64  `json:"cycle"`
	Kind    *string `json:"kind"`
	Node    int32   `json:"node"`
	Loc     int32   `json:"loc"`
	Flow    int32   `json:"flow"`
	Seq     uint64  `json:"seq"`
	Arg     uint64  `json:"arg"`
}

// ReadEventsJSONL decodes a probe JSONL event dump back into the exact
// event slice probe.WriteEventsJSONL serialized, plus the ring's drop count
// from the meta header (0 when the dump is complete). Blank lines are
// skipped; a malformed line, an unknown event kind, or a meta header
// anywhere but line 1 is an error naming the offending line.
func ReadEventsJSONL(r io.Reader) ([]probe.Event, uint64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<22)
	var events []probe.Event
	var dropped uint64
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var l jsonlLine
		if err := json.Unmarshal(line, &l); err != nil {
			return nil, 0, fmt.Errorf("events line %d: %v", lineNo, err)
		}
		if l.Meta != nil {
			if *l.Meta != "probe" {
				return nil, 0, fmt.Errorf("events line %d: unknown meta header %q", lineNo, *l.Meta)
			}
			if lineNo != 1 {
				return nil, 0, fmt.Errorf("events line %d: meta header is only valid as the first line", lineNo)
			}
			dropped = l.Dropped
			continue
		}
		if l.Kind == nil {
			return nil, 0, fmt.Errorf("events line %d: missing \"kind\"", lineNo)
		}
		k, ok := probe.KindFromString(*l.Kind)
		if !ok {
			return nil, 0, fmt.Errorf("events line %d: unknown event kind %q", lineNo, *l.Kind)
		}
		events = append(events, probe.Event{
			Cycle: l.Cycle, Kind: k, Node: l.Node, Loc: l.Loc,
			Flow: l.Flow, Seq: l.Seq, Arg: l.Arg,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("events line %d: %v", lineNo+1, err)
	}
	return events, dropped, nil
}

// ReadEventsFile is ReadEventsJSONL over a file path.
func ReadEventsFile(path string) ([]probe.Event, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	ev, dropped, err := ReadEventsJSONL(f)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %v", path, err)
	}
	return ev, dropped, nil
}
