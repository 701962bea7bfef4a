package traffic

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"loft/internal/topo"
)

func TestParseTraceRoundTrip(t *testing.T) {
	events := []TraceEvent{
		{Cycle: 5, Src: 0, Dst: 3, Flits: 4},
		{Cycle: 9, Src: 1, Dst: 2, Flits: 4},
		{Cycle: 9, Src: 3, Dst: 0, Flits: 8},
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("round trip: %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d: %v != %v", i, got[i], events[i])
		}
	}
}

func TestParseTraceSortsAndSkipsComments(t *testing.T) {
	in := strings.NewReader("# comment\n\n20 1 2 4\n10 0 3 4\n")
	events, err := ParseTrace(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].Cycle != 10 || events[1].Cycle != 20 {
		t.Fatalf("events = %v", events)
	}
}

// TestParseTraceKeepsFileOrderWithinACycle gives 60 events in descending
// cycle order, two per cycle: sorting by cycle must keep each pair in file
// order, which decides the order a node queues its packets in.
func TestParseTraceKeepsFileOrderWithinACycle(t *testing.T) {
	var in strings.Builder
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&in, "%d %d %d 4\n", (59-i)/2, i, i+1)
	}
	events, err := ParseTrace(strings.NewReader(in.String()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(events); i += 2 {
		a, b := events[i], events[i+1]
		if a.Cycle != uint64(i/2) || b.Cycle != a.Cycle || a.Src > b.Src {
			t.Fatalf("events %d and %d: %v then %v, want cycle %d in file order", i, i+1, a, b, i/2)
		}
	}
}

func TestParseTraceRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"1 2 3",        // missing field
		"x 0 1 4",      // bad cycle
		"1 a 1 4",      // bad src
		"1 0 b 4",      // bad dst
		"1 0 1 banana", // bad flits
	} {
		if _, err := ParseTrace(strings.NewReader(bad)); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestFromTraceValidation(t *testing.T) {
	m := topo.NewMesh(4)
	cases := []struct {
		name   string
		events []TraceEvent
	}{
		{"empty", nil},
		{"off-mesh", []TraceEvent{{Cycle: 1, Src: 0, Dst: 99, Flits: 4}}},
		{"self-send", []TraceEvent{{Cycle: 1, Src: 3, Dst: 3, Flits: 4}}},
		{"odd flits", []TraceEvent{{Cycle: 1, Src: 0, Dst: 1, Flits: 3}}},
		{"zero flits", []TraceEvent{{Cycle: 1, Src: 0, Dst: 1, Flits: 0}}},
	}
	for _, c := range cases {
		if _, err := FromTrace(m, c.events, 4, 32, 2); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestFromTraceBuildsFlowsAndReservations(t *testing.T) {
	m := topo.NewMesh(4)
	events := []TraceEvent{
		{Cycle: 1, Src: 0, Dst: 3, Flits: 4},
		{Cycle: 5, Src: 0, Dst: 3, Flits: 4}, // same pair: same flow
		{Cycle: 7, Src: 1, Dst: 3, Flits: 4},
	}
	p, err := FromTrace(m, events, 4, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Flows) != 2 {
		t.Fatalf("flows = %d, want 2", len(p.Flows))
	}
	if err := p.Validate(32, 2); err != nil {
		t.Fatal(err)
	}
	for _, f := range p.Flows {
		if f.Reservation < 2 {
			t.Fatalf("flow %d reservation %d", f.ID, f.Reservation)
		}
	}
}

func TestTraceInjectorReplaysExactly(t *testing.T) {
	m := topo.NewMesh(4)
	events := SyntheticTrace(m, 50, 2000, 4, 7)
	p, err := FromTrace(m, events, 4, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for n := 0; n < m.N(); n++ {
		in := NewInjector(p, topo.NodeID(n), 1)
		for now := uint64(0); now < 3000; now++ {
			for _, pkt := range in.Next(now) {
				if pkt.Created != now {
					t.Fatalf("created %d at cycle %d", pkt.Created, now)
				}
				total++
			}
		}
	}
	if total != len(events) {
		t.Fatalf("replayed %d packets, want %d", total, len(events))
	}
}

func TestSyntheticTraceDeterministic(t *testing.T) {
	m := topo.NewMesh(8)
	a := SyntheticTrace(m, 100, 5000, 4, 3)
	b := SyntheticTrace(m, 100, 5000, 4, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same-seed traces differ")
		}
	}
}

// FuzzParseTrace feeds arbitrary text to ParseTrace, which must not panic:
// it returns an error, or events that WriteTrace then ParseTrace return
// unchanged and in the same order.
func FuzzParseTrace(f *testing.F) {
	for _, seed := range []string{
		"# cycle src dst flits\n5 0 3 4\n9 1 2 4\n9 3 0 8\n",
		"20 1 2 4\n10 0 3 4\n10 2 1 8\n20 0 1 4\n",
		"  7\t-1 +2 0 \r\n\n# trailing comment",
		"18446744073709551615 0 1 4\n",
		"1 2 3",
		"x 0 1 4",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		events, err := ParseTrace(strings.NewReader(text))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, events); err != nil {
			t.Fatal(err)
		}
		again, err := ParseTrace(&buf)
		if err != nil {
			t.Fatalf("re-parsing %q: %v", buf.String(), err)
		}
		if !slices.Equal(again, events) {
			t.Fatalf("round trip changed the events:\n%v\nbecame\n%v", events, again)
		}
	})
}
