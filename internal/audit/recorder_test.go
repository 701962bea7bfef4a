package audit

import (
	"testing"

	"loft/internal/config"
	"loft/internal/flit"
	"loft/internal/probe"
	"loft/internal/topo"
)

// drive feeds the auditor synthetic recorder records, the way the harness
// replays a node's staged stream at the cycle barrier.
type drive struct {
	t *testing.T
	a *Auditor
}

func (d drive) emit(cycle uint64, kind probe.Kind, node, loc, flow int32, seq, arg, aux uint64) {
	d.a.Record(&probe.Record{Event: probe.Event{Cycle: cycle, Kind: kind, Node: node, Loc: loc, Flow: flow, Seq: seq, Arg: arg}, Aux: aux})
}

// quantum books, reserves, injects, forwards and ejects quantum seq of
// packet pkt on flow 0 (node 0 to node 1) from cycle at on: seven events.
// The booking's departure is in cycles: slot at+2 of two-flit quanta.
func (d drive) quantum(at uint64, seq, pkt uint64) {
	d.emit(at, probe.KindLAIssue, 0, int32(topo.NumDirs), 0, seq, 2*(at+2), pkt)
	d.emit(at+1, probe.KindReserve, 0, int32(topo.East), 0, seq, at+2, 0)
	d.emit(at+2, probe.KindReserve, 1, int32(topo.Local), 0, seq, at+3, 0)
	d.emit(at+3, probe.KindDataInject, 0, int32(topo.NumDirs), 0, seq, 0, 4)
	d.emit(at+4, probe.KindDataForward, 0, int32(topo.East), 0, seq, 0, 0)
	d.emit(at+5, probe.KindDataForward, 1, int32(topo.Local), 0, seq, 0, 0)
	d.emit(at+6, probe.KindEject, 1, 0, 0, seq, 0, 4)
}

// done completes packet pkt, injected at injected.
func (d drive) done(cycle, pkt, injected uint64) {
	d.emit(cycle, probe.KindPacketDone, 1, -1, 0, pkt, injected, 0)
}

// newLOFTDrive arms an auditor for one LOFT flow from node 0 to node 1 whose
// bound is one cycle, so every completed packet carries its timeline.
func newLOFTDrive(t *testing.T) drive {
	cfg := config.PaperLOFT()
	a := New(Config{MaxViolations: 1 << 12})
	a.BeginLOFT(cfg, cfg.Mesh(), []flit.Flow{{ID: 0, Src: 0, Dst: 1}})
	a.SetFlowBound(0, 1)
	return drive{t, a}
}

func (d drive) timelines() [][]HopEvent {
	var out [][]HopEvent
	for _, v := range d.a.Violations() {
		if v.Kind != "delay-bound-exceeded" {
			d.t.Fatalf("unexpected violation %v", v)
		}
		out = append(out, v.Timeline)
	}
	return out
}

// head returns the first slab record of packet pkt of flow, failing when
// the packet has no chain.
func (d drive) head(flow flit.FlowID, pkt uint64) int32 {
	d.t.Helper()
	c, ok := d.a.rec.packets.get(flow, pkt)
	if !ok {
		d.t.Fatalf("packet %d of flow %d has no chain", pkt, flow)
	}
	return c.head
}

// freeRecords counts the slab records on the free list.
func (r *recorder) freeRecords() int {
	n := 0
	for i := r.free; i >= 0; i = r.slab[i].next {
		n++
	}
	return n
}

// TestRecorderReusesRecord completes two packets one after the other: the
// second reuses the first one's slab record, and its timeline holds only its
// own events.
func TestRecorderReusesRecord(t *testing.T) {
	d := newLOFTDrive(t)
	d.quantum(10, 0, 0)
	first := d.head(0, 0)
	d.done(17, 0, 13)
	d.quantum(100, 1, 1)
	if i := d.head(0, 1); i != first {
		t.Fatalf("second packet holds record %d, want the first one's, %d", i, first)
	}
	d.done(107, 1, 103)
	tl := d.timelines()
	if len(tl) != 2 {
		t.Fatalf("%d timelines, want 2", len(tl))
	}
	for i, first := range []uint64{10, 100} {
		if len(tl[i]) != 7 {
			t.Fatalf("packet %d: timeline has %d events, want 7: %+v", i, len(tl[i]), tl[i])
		}
		for _, h := range tl[i] {
			if h.Cycle < first || h.Cycle > first+6 {
				t.Fatalf("packet %d: event %+v outside cycles %d..%d", i, h, first, first+6)
			}
		}
	}
	want := []string{"book", "reserve", "reserve", "inject", "forward", "forward", "eject"}
	for j, h := range tl[1] {
		if h.Stage != want[j] {
			t.Fatalf("event %d is %q, want %q: %+v", j, h.Stage, want[j], tl[1])
		}
	}
	if h := tl[1][0]; h.Node != 0 || h.Link != int32(topo.NumDirs) || h.Slot != 102 {
		t.Fatalf("book event %+v, want node 0, link %d, slot 102", h, topo.NumDirs)
	}
}

// TestRecorderGSFReusesRecord is the GSF counterpart: a recycled one-event
// record holds only the new packet's injection.
func TestRecorderGSFReusesRecord(t *testing.T) {
	a := New(Config{})
	a.BeginGSF(config.PaperGSF(), config.PaperGSF().Mesh(), []flit.Flow{{ID: 3, Src: 5, Dst: 6}})
	a.SetFlowBound(3, 1)
	d := drive{t, a}
	var first int32
	for pkt := uint64(0); pkt < 2; pkt++ {
		at := 50 * pkt
		d.emit(at, probe.KindGSFInject, 5, -1, 3, pkt, 0, 0)
		if i := d.head(3, pkt); pkt == 0 {
			first = i
		} else if i != first {
			t.Fatalf("second packet holds record %d, want the first one's, %d", i, first)
		}
		d.emit(at+9, probe.KindPacketDone, 6, -1, 3, pkt, at, 0)
	}
	tl := d.timelines()
	if len(tl) != 2 || len(tl[1]) != 1 || tl[1][0] != (HopEvent{Cycle: 50, Node: 5, Link: int32(topo.NumDirs), Stage: "inject"}) {
		t.Fatalf("timelines %+v, want the second to hold only its injection at cycle 50 on node 5", tl)
	}
}

// TestRecorderChainOrder ejects a packet's two quanta in one cycle: the
// timeline keeps ejection order among events of equal cycle.
func TestRecorderChainOrder(t *testing.T) {
	d := newLOFTDrive(t)
	d.emit(1, probe.KindLAIssue, 0, int32(topo.NumDirs), 0, 7, 8, 0)
	d.emit(1, probe.KindLAIssue, 0, int32(topo.NumDirs), 0, 6, 12, 0)
	d.emit(9, probe.KindEject, 1, 0, 0, 6, 0, 4)
	d.emit(9, probe.KindEject, 1, 0, 0, 7, 0, 4)
	d.done(10, 0, 2)
	// Quantum 6 ejected first, so its booking (slot 6) precedes quantum 7's
	// (slot 4) although both were booked in cycle 1.
	tl := d.timelines()[0]
	if len(tl) != 4 || tl[0].Slot != 6 || tl[1].Slot != 4 || tl[2].Stage != "eject" || tl[3].Stage != "eject" {
		t.Fatalf("timeline %+v is not in ejection order", tl)
	}
	if free, n := d.a.rec.freeRecords(), len(d.a.rec.slab); free != n {
		t.Fatalf("%d of %d records free after the packet completed, want all", free, n)
	}
}

// TestRecorderBookkeepingViolations keeps the recorder's own checks firing:
// a quantum booked twice, a reservation and an ejection with no booking.
func TestRecorderBookkeepingViolations(t *testing.T) {
	d := newLOFTDrive(t)
	d.emit(1, probe.KindLAIssue, 0, int32(topo.NumDirs), 0, 0, 8, 0)
	d.emit(2, probe.KindLAIssue, 0, int32(topo.NumDirs), 0, 0, 8, 0)
	d.emit(3, probe.KindReserve, 0, int32(topo.East), 0, 5, 4, 0)
	d.emit(4, probe.KindEject, 1, 0, 0, 5, 0, 4)
	// A data-path step of an unbooked quantum is the ledger's to catch.
	d.emit(4, probe.KindDataForward, 0, int32(topo.East), 0, 5, 0, 0)
	kinds := map[string]int{}
	for _, v := range d.a.Violations() {
		kinds[v.Kind]++
	}
	want := map[string]int{"duplicate-booking": 1, "reserve-unrecorded": 1, "eject-unrecorded": 1}
	if len(kinds) != len(want) {
		t.Fatalf("violations %v, want %v", kinds, want)
	}
	for k, n := range want {
		if kinds[k] != n {
			t.Fatalf("violations %v, want %v", kinds, want)
		}
	}
	if booked, _, ejected := d.a.RecorderCounts(); booked != 1 || ejected != 1 {
		t.Fatalf("ledger booked %d, ejected %d; want 1 and 1", booked, ejected)
	}
}

// TestRecorderInFlightDrains checks the snapshot's in-flight counts rise
// while a packet's quanta travel and return to 0 once it completes.
func TestRecorderInFlightDrains(t *testing.T) {
	d := newLOFTDrive(t)
	d.emit(1, probe.KindLAIssue, 0, int32(topo.NumDirs), 0, 0, 8, 3)
	d.emit(1, probe.KindLAIssue, 0, int32(topo.NumDirs), 0, 1, 12, 3)
	d.emit(9, probe.KindEject, 1, 0, 0, 0, 0, 4)
	if s := d.a.Snapshot(); s.InFlightQuanta != 1 || s.InFlightPackets != 1 {
		t.Fatalf("mid-packet: %d quanta and %d packets in flight, want 1 and 1", s.InFlightQuanta, s.InFlightPackets)
	}
	d.emit(11, probe.KindEject, 1, 0, 0, 1, 0, 4)
	d.done(12, 3, 2)
	if s := d.a.Snapshot(); s.InFlightQuanta != 0 || s.InFlightPackets != 0 || s.PacketsChecked != 1 {
		t.Fatalf("after completion: %d quanta and %d packets in flight, %d checked; want 0, 0, 1",
			s.InFlightQuanta, s.InFlightPackets, s.PacketsChecked)
	}
}

// TestRecorderSlabBounded runs 1,000 two-quantum packets one after the
// other: they take only the first two records, as many as were ever in
// flight at once, and the slab never grows past its first chunk.
func TestRecorderSlabBounded(t *testing.T) {
	d := newLOFTDrive(t)
	d.a.SetFlowBound(0, 0) // no bound: no timelines to build
	for pkt := uint64(0); pkt < 1000; pkt++ {
		at := 20 * pkt
		d.quantum(at, 2*pkt, pkt)
		d.quantum(at+1, 2*pkt+1, pkt)
		if c, _ := d.a.rec.packets.get(0, pkt); c.head > 1 || c.tail > 1 {
			t.Fatalf("packet %d holds records %d and %d, want records 0 and 1", pkt, c.head, c.tail)
		}
		d.done(at+8, pkt, at+3)
	}
	if n := len(d.a.rec.slab); n != 16 {
		t.Fatalf("slab holds %d records after 1,000 serial packets, want its first chunk, 16", n)
	}
	if s := d.a.Snapshot(); s.PacketsChecked != 1000 || !s.Clean {
		t.Fatalf("checked %d packets (clean %v), want 1000 clean", s.PacketsChecked, s.Clean)
	}
}

// TestRecorderUnknownFlow arms flows 2 and 0, leaving id 1 a hole in the
// flow table: a packet or a quarantine for the hole, for an id past the
// table or for a negative id is an unknown flow, a bound for one is ignored,
// and the snapshot lists the registered flows in id order.
func TestRecorderUnknownFlow(t *testing.T) {
	cfg := config.PaperLOFT()
	a := New(Config{})
	a.BeginLOFT(cfg, cfg.Mesh(), []flit.Flow{{ID: 2, Src: 0, Dst: 2}, {ID: 0, Src: 0, Dst: 1}})
	d := drive{t, a}
	for _, flow := range []int32{1, 3, -1} {
		d.emit(10, probe.KindPacketDone, 1, -1, flow, 0, 5, 0)
	}
	a.Quarantine(1, 0.1)
	a.SetFlowBound(9, 1)
	if n := len(a.Violations()); n != 4 {
		t.Fatalf("%d violations, want 4 unknown-flow: %v", n, a.Violations())
	}
	for _, v := range a.Violations() {
		if v.Kind != "unknown-flow" {
			t.Fatalf("violation %v, want unknown-flow", v)
		}
	}
	var ids []int32
	for _, f := range a.Snapshot().Flows {
		ids = append(ids, f.Flow)
	}
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 2 {
		t.Fatalf("snapshot lists flows %v, want [0 2]", ids)
	}
}

// TestSeqRows drives the rows directly: a collision doubles every row and
// keeps the other flows' values, an aliased slot is a miss, and a flow id
// with no row, the sequence 2^64-1 and a collision at the widest rows spill
// into the map.
func TestSeqRows(t *testing.T) {
	var s seqRows[int32]
	s.reset(3)
	s.set(0, 0, 10)
	s.set(2, 5, 25)
	if s.mask+1 != minRowWidth {
		t.Fatalf("width %d, want %d", s.mask+1, minRowWidth)
	}
	s.set(0, minRowWidth, 11) // lands on sequence 0
	if s.mask+1 != 2*minRowWidth {
		t.Fatalf("width %d after a collision, want %d", s.mask+1, 2*minRowWidth)
	}
	for _, c := range []struct {
		flow flit.FlowID
		seq  uint64
		want int32
		ok   bool
	}{{0, 0, 10, true}, {0, minRowWidth, 11, true}, {2, 5, 25, true}, {0, 2 * minRowWidth, 0, false}, {1, 0, 0, false}} {
		if v, ok := s.get(c.flow, c.seq); v != c.want || ok != c.ok {
			t.Fatalf("get(%d, %d) = %d, %v; want %d, %v", c.flow, c.seq, v, ok, c.want, c.ok)
		}
	}
	s.set(-1, 0, 1)
	s.set(3, 0, 2)
	s.set(1, 1<<64-1, 3)
	s.set(1, 0, 4)
	for w := s.mask + 1; w < maxRowWidth; w = s.mask + 1 {
		s.set(1, w, 5) // lands on sequence 0 and doubles the rows again
	}
	s.set(1, 2*maxRowWidth, 6) // lands on sequence 0 at the widest rows
	if len(s.spill) != 4 || s.live != 14 {
		t.Fatalf("%d spilled of %d live, want 4 of 14", len(s.spill), s.live)
	}
	for _, k := range []seqKey{{-1, 0}, {3, 0}, {1, 1<<64 - 1}, {1, 2 * maxRowWidth}, {0, minRowWidth}} {
		if _, ok := s.remove(k.flow, k.seq); !ok {
			t.Fatalf("remove(%d, %d) missed", k.flow, k.seq)
		}
		if _, ok := s.get(k.flow, k.seq); ok {
			t.Fatalf("get(%d, %d) hit after its removal", k.flow, k.seq)
		}
	}
	if len(s.spill) != 0 || s.live != 9 {
		t.Fatalf("%d spilled of %d live after the removals, want 0 of 9", len(s.spill), s.live)
	}
}

// TestRecorderStrideFits alternates packets of a one-hop and a fourteen-hop
// flow, each quantum with every hop its route has: a record recycled from
// the short flow to the long one keeps its hop storage, so the steady state
// allocates nothing.
func TestRecorderStrideFits(t *testing.T) {
	cfg := config.PaperLOFT()
	a := New(Config{})
	a.BeginLOFT(cfg, cfg.Mesh(), []flit.Flow{{ID: 0, Src: 0, Dst: 1}, {ID: 1, Src: 0, Dst: 63}})
	d := drive{t, a}
	var seq [2]uint64
	lifecycle := func(flow int32, hops int) {
		s := seq[flow]
		seq[flow]++
		d.emit(1, probe.KindLAIssue, 0, int32(topo.NumDirs), flow, s, 8, s)
		d.emit(2, probe.KindDataInject, 0, int32(topo.NumDirs), flow, s, 0, 4)
		for h := 0; h <= hops; h++ {
			d.emit(3, probe.KindReserve, int32(h), int32(topo.East), flow, s, 4, 0)
			d.emit(4, probe.KindDataForward, int32(h), int32(topo.East), flow, s, 0, 0)
		}
		d.emit(5, probe.KindEject, 1, 0, flow, s, 0, 4)
		d.emit(6, probe.KindPacketDone, 1, -1, flow, s, 2, 0)
	}
	lifecycle(0, 1)
	if n := testing.AllocsPerRun(100, func() {
		lifecycle(0, 1)
		lifecycle(1, 14)
	}); n != 0 {
		t.Fatalf("%.1f allocations per pair of packets, want 0", n)
	}
	if s := a.Snapshot(); s.PacketsChecked != 203 || !s.Clean {
		t.Fatalf("checked %d packets (clean %v), want 203 clean", s.PacketsChecked, s.Clean)
	}
}
