package trace

import (
	"cmp"
	"reflect"
	"slices"
	"strings"
	"testing"

	"loft/internal/config"
	"loft/internal/core"
	"loft/internal/probe"
	"loft/internal/topo"
	"loft/internal/traffic"
)

func TestComponentsExact(t *testing.T) {
	q := QuantumTrace{
		Flow: 1, Seq: 3, Src: 0, Dst: 2,
		Book:   10,
		Inject: 14, // 4 cycles of booking wait
		Forwards: []Forward{
			{Node: 0, Dir: int32(topo.East), Cycle: 16, Booked: 16},  // on schedule, zero residual
			{Node: 1, Dir: int32(topo.East), Cycle: 20, Booked: 18},  // 2 cycles look-ahead wait
			{Node: 2, Dir: int32(topo.Local), Cycle: 22, Booked: 24}, // speculative, 2 cycles saved
		},
	}
	c, err := q.Components(2)
	if err != nil {
		t.Fatal(err)
	}
	want := Components{
		Total:         12,
		BookingWait:   4,
		Serialization: 6,
		LookaheadWait: 2,
		SpecWait:      0,
		SpecSaved:     2,
		Hops:          3,
		SpecHops:      1,
	}
	if c != want {
		t.Errorf("components = %+v, want %+v", c, want)
	}
	if c.BookingWait+c.Serialization+c.LookaheadWait+c.SpecWait != c.Total {
		t.Error("components do not sum to total")
	}
}

func TestComponentsErrors(t *testing.T) {
	eject := Forward{Dir: int32(topo.Local), Cycle: 20, Booked: 20}
	cases := []struct {
		name    string
		q       QuantumTrace
		slot    uint64
		wantErr string
	}{
		{"zero slot", QuantumTrace{Forwards: []Forward{eject}}, 0, "slotCycles must be positive"},
		{"no forwards", QuantumTrace{Book: 1, Inject: 2}, 2, "no ejection forward"},
		{"no ejection", QuantumTrace{Book: 1, Inject: 2,
			Forwards: []Forward{{Dir: int32(topo.East), Cycle: 20}}}, 2, "no ejection forward"},
		{"inject before book", QuantumTrace{Book: 9, Inject: 4,
			Forwards: []Forward{eject}}, 2, "before booking"},
		{"short dwell", QuantumTrace{Book: 1, Inject: 19,
			Forwards: []Forward{eject}}, 2, "dwell"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := c.q.Components(c.slot)
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("err = %v, want substring %q", err, c.wantErr)
			}
		})
	}
}

func TestDecomposeHandBuiltStream(t *testing.T) {
	slot := uint64(2)
	ni := int32(topo.NumDirs)
	events := []probe.Event{
		// Per-hop la-issue at a router location must NOT anchor the booking.
		{Cycle: 8, Kind: probe.KindLAIssue, Node: 1, Loc: int32(topo.East), Flow: 5, Seq: 0, Arg: 99},
		{Cycle: 10, Kind: probe.KindLAIssue, Node: 0, Loc: ni, Flow: 5, Seq: 0, Arg: 12},
		{Cycle: 12, Kind: probe.KindDataInject, Node: 0, Loc: ni, Flow: 5, Seq: 0, Arg: 12},
		{Cycle: 14, Kind: probe.KindDataForward, Node: 0, Loc: int32(topo.East), Flow: 5, Seq: 0, Arg: 14},
		{Cycle: 16, Kind: probe.KindDataForward, Node: 1, Loc: int32(topo.Local), Flow: 5, Seq: 0, Arg: 18},
		// Second quantum never ejects: counts as incomplete, not an error.
		{Cycle: 20, Kind: probe.KindLAIssue, Node: 0, Loc: ni, Flow: 5, Seq: 1, Arg: 22},
		{Cycle: 22, Kind: probe.KindDataInject, Node: 0, Loc: ni, Flow: 5, Seq: 1, Arg: 22},
	}
	d, err := Decompose(events, slot, 7)
	if err != nil {
		t.Fatal(err)
	}
	if d.Complete != 1 || d.Incomplete != 1 || d.Dropped != 7 {
		t.Fatalf("complete=%d incomplete=%d dropped=%d, want 1/1/7", d.Complete, d.Incomplete, d.Dropped)
	}
	if len(d.Errors) != 0 {
		t.Fatalf("errors = %v", d.Errors)
	}
	q := d.Quanta[0]
	if q.Flow != 5 || q.Seq != 0 || q.Src != 0 || q.Dst != 1 || q.Book != 10 {
		t.Errorf("quantum = %+v", q.QuantumTrace)
	}
	want := Components{Total: 6, BookingWait: 2, Serialization: 4, SpecWait: 0, SpecSaved: 2, Hops: 2, SpecHops: 1}
	if q.Components != want {
		t.Errorf("components = %+v, want %+v", q.Components, want)
	}
	if len(d.PerHop) != 2 || d.PerHop[1].Spec != 1 {
		t.Errorf("perHop = %+v", d.PerHop)
	}
	if len(d.PerFlow) != 1 || d.PerFlow[0].Flow != 5 || d.PerFlow[0].Agg.Count != 1 {
		t.Errorf("perFlow = %+v", d.PerFlow)
	}
	m := d.Metrics()
	if m["decomp_quanta"] != 1 || m["decomp_mean_total_cycles"] != 6 || m["decomp_spec_hop_pct"] != 50 {
		t.Errorf("metrics = %v", m)
	}
}

func TestDecomposeRejectsZeroSlot(t *testing.T) {
	if _, err := Decompose(nil, 0, 0); err == nil {
		t.Fatal("want error for slotCycles=0")
	}
}

// runDecomposed drives a real LOFT simulation with the probe attached and
// replays the event stream — the end-to-end path lofttrace decompose uses.
func runDecomposed(t *testing.T, spec int) *Decomposition {
	t.Helper()
	cfg := config.PaperLOFTSpec(spec)
	p := traffic.Uniform(cfg.Mesh(), 0.3, cfg.PacketFlits, cfg.FrameFlits)
	pr := probe.New(probe.Config{EventCap: 1 << 20})
	if _, _, err := core.RunLOFT(cfg, p, core.RunSpec{Seed: 42, Warmup: 0, Measure: 2000, Probe: pr}); err != nil {
		t.Fatal(err)
	}
	d, err := Decompose(pr.Events(), uint64(cfg.QuantumFlits), 0)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDecomposeSimulationSumIdentity is the acceptance check for the
// decomposition: on a real simulated stream every complete quantum's four
// components sum exactly to its end-to-end latency, and the stream violates
// no timing invariant.
func TestDecomposeSimulationSumIdentity(t *testing.T) {
	d := runDecomposed(t, 12)
	if len(d.Errors) != 0 {
		t.Fatalf("timing-invariant violations: %v", d.Errors)
	}
	if d.Complete == 0 {
		t.Fatal("no quantum decomposed; probe stream is missing data-path events")
	}
	for _, q := range d.Quanta {
		c := q.Components
		if c.BookingWait+c.Serialization+c.LookaheadWait+c.SpecWait != c.Total {
			t.Fatalf("flow %d seq %d: %d+%d+%d+%d != total %d",
				q.Flow, q.Seq, c.BookingWait, c.Serialization, c.LookaheadWait, c.SpecWait, c.Total)
		}
		if c.Total != q.Forwards[len(q.Forwards)-1].Cycle-q.Book {
			t.Fatalf("flow %d seq %d: total %d is not eject-book", q.Flow, q.Seq, c.Total)
		}
	}
}

// TestDecomposeSpeculationVisibility pins that the decomposition separates
// the §4.3.1 configurations: with speculative switching disabled no hop may
// classify as speculative, and the spec-wait/spec-saved components are zero.
func TestDecomposeSpeculationVisibility(t *testing.T) {
	off := runDecomposed(t, 0)
	if len(off.Errors) != 0 {
		t.Fatalf("spec=0 violations: %v", off.Errors)
	}
	if off.All.SpecHops != 0 {
		t.Errorf("spec=0 run classified %d speculative hops", off.All.SpecHops)
	}
	if m := off.Metrics(); m["decomp_mean_spec_wait_cycles"] != 0 || m["decomp_mean_spec_saved_cycles"] != 0 {
		t.Errorf("spec=0 metrics report speculative cycles: %v", m)
	}
}

// TestDecomposeMultiRunStream pins the decomposition of a stream that holds
// several runs, as loftsim -seeds N -probe writes it: every run numbers its
// quanta from 0 again, so a key recurs once per run. Decomposing the
// concatenated streams must equal the sum of decomposing each.
func TestDecomposeMultiRunStream(t *testing.T) {
	cfg := config.PaperLOFT()
	slot := uint64(cfg.QuantumFlits)
	var streams [][]probe.Event
	var parts []*Decomposition
	for _, seed := range []uint64{1, 2} {
		p := traffic.Uniform(cfg.Mesh(), 0.1, cfg.PacketFlits, cfg.FrameFlits)
		pr := probe.New(probe.Config{EventCap: 1 << 20})
		if _, _, err := core.RunLOFT(cfg, p, core.RunSpec{Seed: seed, Warmup: 200, Measure: 1300, Probe: pr}); err != nil {
			t.Fatal(err)
		}
		d, err := Decompose(pr.Events(), slot, 0)
		if err != nil {
			t.Fatal(err)
		}
		if d.Complete == 0 || d.Incomplete == 0 || len(d.Errors) != 0 {
			t.Fatalf("seed %d: %d complete, %d incomplete, errors %v; want quanta of both kinds and no error", seed, d.Complete, d.Incomplete, d.Errors)
		}
		streams = append(streams, pr.Events())
		parts = append(parts, d)
	}
	both, err := Decompose(slices.Concat(streams...), slot, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(both.Errors) != 0 {
		t.Fatalf("%d timing-invariant violations, first: %s", len(both.Errors), both.Errors[0])
	}
	if c, i := parts[0].Complete+parts[1].Complete, parts[0].Incomplete+parts[1].Incomplete; both.Complete != c || both.Incomplete != i {
		t.Fatalf("concatenated: %d complete, %d incomplete; runs alone sum to %d and %d", both.Complete, both.Incomplete, c, i)
	}
	// Each key's quanta in stream order: the first run's before the second's.
	want := slices.Concat(parts[0].Quanta, parts[1].Quanta)
	slices.SortStableFunc(want, func(a, b QuantumResult) int {
		return cmp.Or(cmp.Compare(a.Flow, b.Flow), cmp.Compare(a.Seq, b.Seq))
	})
	if !reflect.DeepEqual(both.Quanta, want) {
		t.Fatal("concatenated quanta differ from the runs' quanta merged by (flow, seq)")
	}
	if n := parts[0].All.Count + parts[1].All.Count; both.All.Count != n {
		t.Fatalf("aggregate counts %d quanta, runs alone %d", both.All.Count, n)
	}
}
