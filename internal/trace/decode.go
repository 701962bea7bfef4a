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
	"math"
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
// anywhere but line 1 is an error naming the offending line. An event line
// in the exact shape the writer emits is scanned directly (parseEventLine);
// every other line goes through encoding/json, with the same result.
func ReadEventsJSONL(r io.Reader) ([]probe.Event, uint64, error) {
	return readEventsJSONL(r, true)
}

// readEventsJSONL is ReadEventsJSONL, with the direct scan of writer-shaped
// event lines switched on or off (off only to check the two paths agree).
func readEventsJSONL(r io.Reader, fast bool) ([]probe.Event, uint64, error) {
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
		if fast {
			if e, ok := parseEventLine(line); ok {
				events = append(events, e)
				continue
			}
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

// parseEventLine decodes line when it is an event in the exact shape
// probe.WriteEventsJSONL writes — its keys in order, seq only when
// present, integers in canonical form and within range, a known kind name —
// and reports false for anything else, including every line
// json.Unmarshal would reject. What it accepts, json.Unmarshal decodes to
// the same event.
func parseEventLine(line []byte) (probe.Event, bool) {
	var e probe.Event
	s := lineScanner(line)
	ok := s.lit(`{"cycle":`) && s.uint(&e.Cycle) &&
		s.lit(`,"kind":"`) && s.kind(&e.Kind) &&
		s.lit(`","node":`) && s.int32(&e.Node) &&
		s.lit(`,"loc":`) && s.int32(&e.Loc) &&
		s.lit(`,"flow":`) && s.int32(&e.Flow)
	if ok && s.lit(`,"seq":`) {
		ok = s.uint(&e.Seq)
	}
	ok = ok && s.lit(`,"arg":`) && s.uint(&e.Arg) && s.lit("}") && len(s) == 0
	return e, ok
}

// lineScanner is the unread rest of a line; each method consumes what it
// matched and reports whether it matched.
type lineScanner []byte

func (s *lineScanner) lit(prefix string) bool {
	if !bytes.HasPrefix(*s, []byte(prefix)) {
		return false
	}
	*s = (*s)[len(prefix):]
	return true
}

// digits consumes a canonical JSON unsigned integer (no sign, no leading
// zero) of at most max.
func (s *lineScanner) digits(v *uint64, max uint64) bool {
	b := *s
	n := 0
	for n < len(b) && b[n] >= '0' && b[n] <= '9' {
		n++
	}
	if n == 0 || n > 1 && b[0] == '0' {
		return false
	}
	var x uint64
	for _, c := range b[:n] {
		d := uint64(c - '0')
		if x > (max-d)/10 {
			return false
		}
		x = x*10 + d
	}
	*v, *s = x, b[n:]
	return true
}

func (s *lineScanner) uint(v *uint64) bool { return s.digits(v, math.MaxUint64) }

// int32 consumes a canonical JSON integer in int32's range; it leaves "-0"
// to encoding/json.
func (s *lineScanner) int32(v *int32) bool {
	limit := uint64(math.MaxInt32)
	neg := s.lit("-")
	if neg {
		limit++
	}
	var x uint64
	if !s.digits(&x, limit) || neg && x == 0 {
		return false
	}
	*v = int32(x)
	if neg {
		*v = int32(-int64(x))
	}
	return true
}

// kind consumes a kind name up to its closing quote, which it leaves.
func (s *lineScanner) kind(k *probe.Kind) bool {
	end := bytes.IndexByte(*s, '"')
	if end < 0 {
		return false
	}
	kind, ok := probe.KindFromString(string((*s)[:end]))
	*k, *s = kind, (*s)[end:]
	return ok
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
