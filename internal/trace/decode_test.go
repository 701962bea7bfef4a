package trace

import (
	"bytes"
	"reflect"
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
