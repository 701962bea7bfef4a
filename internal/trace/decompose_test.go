package trace

import (
	"fmt"
	"math"
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
		Flow: 1, Seq: 3,
		Book:   10,
		Inject: 14, // 4 cycles of booking wait
		Forwards: []Forward{
			{Dir: int32(topo.East), Cycle: 16, Booked: 16},  // on schedule, zero residual
			{Dir: int32(topo.East), Cycle: 20, Booked: 18},  // 2 cycles look-ahead wait
			{Dir: int32(topo.Local), Cycle: 22, Booked: 24}, // speculative, 2 cycles saved
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
	ni := int32(topo.NumDirs)
	// One complete quantum of flow 5: booked at 10, injected at 12, a
	// scheduled crossing at 14 and a speculative ejection at 16 that ran
	// two cycles ahead of its booking.
	complete := []probe.Event{
		{Cycle: 10, Kind: probe.KindLAIssue, Node: 0, Loc: ni, Flow: 5, Seq: 0, Arg: 12},
		{Cycle: 12, Kind: probe.KindDataInject, Node: 0, Loc: ni, Flow: 5, Seq: 0, Arg: 12},
		{Cycle: 14, Kind: probe.KindDataForward, Node: 0, Loc: int32(topo.East), Flow: 5, Seq: 0, Arg: 14},
		{Cycle: 16, Kind: probe.KindDataForward, Node: 1, Loc: int32(topo.Local), Flow: 5, Seq: 0, Arg: 18},
	}
	cases := []struct {
		name                 string
		events               []probe.Event
		complete, incomplete int
	}{
		{"per-hop issue and a quantum that never ejects", slices.Concat([]probe.Event{
			// A per-hop la-issue at a router location must NOT anchor the booking.
			{Cycle: 8, Kind: probe.KindLAIssue, Node: 1, Loc: int32(topo.East), Flow: 5, Seq: 0, Arg: 99},
		}, complete, []probe.Event{
			// The second quantum never ejects: incomplete, not an error.
			{Cycle: 20, Kind: probe.KindLAIssue, Node: 0, Loc: ni, Flow: 5, Seq: 1, Arg: 22},
			{Cycle: 22, Kind: probe.KindDataInject, Node: 0, Loc: ni, Flow: 5, Seq: 1, Arg: 22},
		}), 1, 1},
		// Two runs in one stream: the ring lost the first run's booking of
		// flow 5's quantum 0, which never ejected; the second run's quantum 0
		// is complete. The booking starts a new quantum rather than joining
		// the first run's forward.
		{"booking after a clipped quantum of the same key", slices.Concat([]probe.Event{
			{Cycle: 50, Kind: probe.KindDataForward, Node: 2, Loc: int32(topo.East), Flow: 5, Seq: 0, Arg: 50},
		}, complete), 1, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d, err := Decompose(c.events, 2, 7)
			if err != nil {
				t.Fatal(err)
			}
			if len(d.Errors) != 0 {
				t.Fatalf("errors = %v", d.Errors)
			}
			if d.Complete != c.complete || d.Incomplete != c.incomplete || d.Dropped != 7 {
				t.Fatalf("complete=%d incomplete=%d dropped=%d, want %d/%d/7", d.Complete, d.Incomplete, d.Dropped, c.complete, c.incomplete)
			}
			s := d.All
			if s.Quanta != 1 || s.MeanHops != 2 || s.SpecHopPct != 50 || s.Total.Mean != 6 || s.BookingWait.Mean != 2 ||
				s.Serialization.Mean != 4 || s.LookaheadWait.Mean != 0 || s.SpecWait.Mean != 0 || s.SpecSaved.Mean != 2 {
				t.Errorf("all = %+v", s)
			}
			want := []HopSummary{{Hop: 0, Count: 1}, {Hop: 1, Count: 1, SpecPct: 100}}
			if !slices.Equal(d.PerHop, want) {
				t.Errorf("perHop = %+v, want %+v", d.PerHop, want)
			}
			if len(d.PerFlow) != 1 || d.PerFlow[0].Flow != 5 || d.PerFlow[0].Summary != s {
				t.Errorf("perFlow = %+v", d.PerFlow)
			}
			m := d.Metrics
			if m["decomp_quanta"] != 1 || m["decomp_incomplete"] != float64(c.incomplete) || m["decomp_mean_total_cycles"] != 6 || m["decomp_spec_hop_pct"] != 50 {
				t.Errorf("metrics = %v", m)
			}
		})
	}
}

func TestDecomposeRejectsZeroSlot(t *testing.T) {
	if _, err := Decompose(nil, 0, 0); err == nil {
		t.Fatal("want error for slotCycles=0")
	}
}

// runDecomposed drives a real LOFT simulation with the probe attached and
// replays the event stream — the end-to-end path lofttrace decompose uses.
func runDecomposed(t *testing.T, spec int) (*Decomposition, []probe.Event) {
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
	return d, pr.Events()
}

// TestDecomposeSimulationSumIdentity is the acceptance check for the
// decomposition: on a real simulated stream every complete quantum's four
// components sum exactly to its end-to-end latency (Components reports any
// quantum that misses it in Errors), the stream violates no timing
// invariant, and every NI booking ends as exactly one complete or
// incomplete quantum.
func TestDecomposeSimulationSumIdentity(t *testing.T) {
	d, events := runDecomposed(t, 12)
	if len(d.Errors) != 0 {
		t.Fatalf("%d timing-invariant violations, first: %s", len(d.Errors), d.Errors[0])
	}
	if d.Complete == 0 || d.Incomplete == 0 {
		t.Fatalf("%d complete, %d incomplete; want quanta of both kinds", d.Complete, d.Incomplete)
	}
	var booked int
	for _, e := range events {
		if e.Kind == probe.KindLAIssue && e.Loc == int32(topo.NumDirs) {
			booked++
		}
	}
	if d.Complete+d.Incomplete != booked {
		t.Errorf("%d complete + %d incomplete quanta, but %d NI bookings", d.Complete, d.Incomplete, booked)
	}
	s := d.All
	if sum := s.BookingWait.Mean + s.Serialization.Mean + s.LookaheadWait.Mean + s.SpecWait.Mean; math.Abs(sum-s.Total.Mean) > 1e-9 {
		t.Errorf("mean components sum to %v, mean total is %v", sum, s.Total.Mean)
	}
}

// TestDecomposeSpeculationVisibility pins that the decomposition separates
// the §4.3.1 configurations: with speculative switching disabled no hop may
// classify as speculative, and the spec-wait/spec-saved components are zero.
func TestDecomposeSpeculationVisibility(t *testing.T) {
	off, _ := runDecomposed(t, 0)
	if len(off.Errors) != 0 {
		t.Fatalf("spec=0 violations: %v", off.Errors)
	}
	if off.All.SpecHopPct != 0 {
		t.Errorf("spec=0 run classified %.1f%% of hops speculative", off.All.SpecHopPct)
	}
	if m := off.Metrics; m["decomp_mean_spec_wait_cycles"] != 0 || m["decomp_mean_spec_saved_cycles"] != 0 {
		t.Errorf("spec=0 metrics report speculative cycles: %v", m)
	}
}

// TestDecomposeMultiRunStream pins the decomposition of a stream that holds
// several runs, as loftsim -seeds N -probe writes it: every run numbers its
// quanta from 0 again, so a key recurs once per run. Decomposing the
// concatenated streams must equal the sum of decomposing each: the same
// quanta in total, per flow and per hop, with the same means and maxima.
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
	checkMerged(t, "all flows", both.All, parts[0].All, parts[1].All)
	flows := func(d *Decomposition) map[int32]AggSummary {
		m := make(map[int32]AggSummary)
		for _, f := range d.PerFlow {
			m[f.Flow] = f.Summary
		}
		return m
	}
	f0, f1 := flows(parts[0]), flows(parts[1])
	for fl, s := range flows(both) {
		checkMerged(t, fmt.Sprintf("flow %d", fl), s, f0[fl], f1[fl])
	}
	if len(both.PerFlow) != max(len(f0), len(f1)) {
		t.Errorf("concatenated stream has %d flows, the runs %d and %d", len(both.PerFlow), len(f0), len(f1))
	}
	for i, h := range both.PerHop {
		var n uint64
		for _, p := range parts {
			if i < len(p.PerHop) {
				n += p.PerHop[i].Count
			}
		}
		if h.Count != n {
			t.Errorf("hop %d: %d crossings, runs alone %d", i, h.Count, n)
		}
	}
}

// checkMerged checks that got aggregates the quanta of a and b: their
// count, and per component the combined mean and the larger maximum.
func checkMerged(t *testing.T, what string, got, a, b AggSummary) {
	t.Helper()
	if got.Quanta != a.Quanta+b.Quanta {
		t.Errorf("%s: %d quanta, runs alone %d + %d", what, got.Quanta, a.Quanta, b.Quanta)
		return
	}
	comps := func(s AggSummary) []ComponentStats {
		return []ComponentStats{s.Total, s.BookingWait, s.Serialization, s.LookaheadWait, s.SpecWait, s.SpecSaved}
	}
	ca, cb := comps(a), comps(b)
	for i, c := range comps(got) {
		mean := (ca[i].Mean*float64(a.Quanta) + cb[i].Mean*float64(b.Quanta)) / float64(got.Quanta)
		if c.Max != max(ca[i].Max, cb[i].Max) || math.Abs(c.Mean-mean) > 1e-9*max(1, mean) {
			t.Errorf("%s component %d: mean %v max %d; runs alone merge to mean %v max %d", what, i, c.Mean, c.Max, mean, max(ca[i].Max, cb[i].Max))
		}
	}
}
