package trace

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"loft/internal/probe"
)

// TestEventsJSONLRoundTrip pins the exporter↔decoder symmetry: the decoder
// must reproduce the exact event slice probe.WriteEventsJSONL serialized,
// including the dropped-tail meta header.
func TestEventsJSONLRoundTrip(t *testing.T) {
	events := []probe.Event{
		{Cycle: 0, Kind: probe.KindReserveGrant, Node: 3, Loc: 1, Flow: 7, Arg: 42},
		{Cycle: 5, Kind: probe.KindLAIssue, Node: 3, Loc: 5, Flow: 7, Seq: 9, Arg: 12},
		{Cycle: 6, Kind: probe.KindDataInject, Node: 3, Loc: 5, Flow: 7, Seq: 9, Arg: 12},
		{Cycle: 8, Kind: probe.KindDataForward, Node: 3, Loc: 4, Flow: 7, Seq: 9, Arg: 12},
		{Cycle: 9, Kind: probe.KindFrameRecycle, Node: -1, Loc: 2, Flow: -1, Arg: 3},
	}
	for _, dropped := range []uint64{0, 17} {
		var buf bytes.Buffer
		if err := probe.WriteEventsJSONL(&buf, events, dropped); err != nil {
			t.Fatal(err)
		}
		got, gotDropped, err := ReadEventsJSONL(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("dropped=%d: %v", dropped, err)
		}
		if gotDropped != dropped {
			t.Errorf("dropped = %d, want %d", gotDropped, dropped)
		}
		if !reflect.DeepEqual(got, events) {
			t.Errorf("round trip diverged:\n got %+v\nwant %+v", got, events)
		}
	}
}

// TestEventsJSONLRoundTripAllKinds walks every defined kind through the
// wire format, so adding a kind without a name (or with a colliding name)
// fails here rather than in a consumer.
func TestEventsJSONLRoundTripAllKinds(t *testing.T) {
	var events []probe.Event
	for k := 0; k < probe.NumKinds(); k++ {
		events = append(events, probe.Event{Cycle: uint64(k), Kind: probe.Kind(k), Node: 1, Loc: 2, Flow: 3, Seq: uint64(k), Arg: 4})
	}
	var buf bytes.Buffer
	if err := probe.WriteEventsJSONL(&buf, events, 0); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadEventsJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Errorf("round trip diverged:\n got %+v\nwant %+v", got, events)
	}
}

func TestEventsJSONLErrors(t *testing.T) {
	cases := []struct {
		name, input, wantErr string
	}{
		{"malformed", `{"cycle":1,"kind":"spec-hit"` + "\n", "line 1"},
		{"unknown kind", `{"cycle":1,"kind":"warp-drive"}` + "\n", `unknown event kind "warp-drive"`},
		{"missing kind", `{"cycle":1,"node":2}` + "\n", `missing "kind"`},
		{"late meta", `{"cycle":1,"kind":"spec-hit"}` + "\n" + `{"meta":"probe","dropped":3}` + "\n", "only valid as the first line"},
		{"alien meta", `{"meta":"quux"}` + "\n", `unknown meta header "quux"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, _, err := ReadEventsJSONL(strings.NewReader(c.input))
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("err = %v, want substring %q", err, c.wantErr)
			}
		})
	}
}

// TestParseEventLineTakesWriterLines checks that every event line the
// writer emits takes the direct scan — every kind, with and without a
// sequence, at the extremes of each field's range — and decodes exactly.
func TestParseEventLineTakesWriterLines(t *testing.T) {
	var events []probe.Event
	for k := 0; k < probe.NumKinds(); k++ {
		events = append(events,
			probe.Event{Cycle: uint64(k), Kind: probe.Kind(k), Node: -1, Loc: 0, Flow: -1, Arg: 0},
			probe.Event{Cycle: math.MaxUint64, Kind: probe.Kind(k), Node: math.MaxInt32, Loc: math.MinInt32, Flow: 12, Seq: math.MaxUint64, Arg: math.MaxUint64})
	}
	var buf bytes.Buffer
	if err := probe.WriteEventsJSONL(&buf, events, 0); err != nil {
		t.Fatal(err)
	}
	for i, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		e, ok := parseEventLine(line)
		if !ok || e != events[i] {
			t.Errorf("%s: scanned %+v (ok %v), want %+v", line, e, ok, events[i])
		}
	}
}

// FuzzReadEventsJSONL feeds arbitrary dumps to the decoder with and without
// the direct scan of writer-shaped event lines: both must return the same
// events, drop count and error.
func FuzzReadEventsJSONL(f *testing.F) {
	var buf bytes.Buffer
	if err := probe.WriteEventsJSONL(&buf, []probe.Event{
		{Cycle: 3, Kind: probe.KindReserveGrant, Node: 3, Loc: 1, Flow: 7, Arg: 42},
		{Cycle: 5, Kind: probe.KindDataForward, Node: -1, Loc: 4, Flow: -1, Seq: 9, Arg: 12},
	}, 17); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	for _, line := range []string{
		`{"cycle":0,"kind":"spec-hit","node":0,"loc":0,"flow":0,"seq":0,"arg":0}`,
		`{"cycle":18446744073709551615,"kind":"la-issue","node":2147483647,"loc":-2147483648,"flow":1,"arg":1}`,
		`{"cycle":18446744073709551616,"kind":"la-issue","node":1,"loc":1,"flow":1,"arg":1}`,
		`{"cycle":1,"kind":"la-issue","node":2147483648,"loc":1,"flow":1,"arg":1}`,
		`{"cycle":1,"kind":"la-issue","node":-0,"loc":01,"flow":1.0,"arg":1e3}`,
		`{"cycle":-1,"kind":"la-issue","node":1,"loc":1,"flow":1,"arg":1}`,
		`{"CYCLE":1,"kind":"la-issue","node":1,"loc":1,"flow":1,"arg":1}`,
		`{"cycle":1,"kind":"la-issue","node":1,"loc":1,"flow":1,"arg":1}`,
		`{"cycle":1,"kind":"no-such-kind","node":1,"loc":1,"flow":1,"arg":1}`,
		`{"cycle":1,"kind":"la-issue","node":1,"loc":1,"flow":1,"arg":1}{}`,
		`{"cycle":1,"kind":"la-issue","node":1,"loc":1,"flow":1,"arg":1} ` + "\n\n" + `{"meta":"probe","dropped":1}`,
		`{"cycle":1,"kind":"la-issue","node":1,"loc":1,"flow":1,"arg":1,"arg":2}`,
	} {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, dump string) {
		fast, fastDropped, fastErr := readEventsJSONL(strings.NewReader(dump), true)
		slow, slowDropped, slowErr := readEventsJSONL(strings.NewReader(dump), false)
		if fmt.Sprint(fastErr) != fmt.Sprint(slowErr) {
			t.Fatalf("error %v with the direct scan, %v without", fastErr, slowErr)
		}
		if !slices.Equal(fast, slow) || fastDropped != slowDropped {
			t.Fatalf("direct scan decoded %+v (dropped %d), encoding/json %+v (dropped %d)", fast, fastDropped, slow, slowDropped)
		}
	})
}
