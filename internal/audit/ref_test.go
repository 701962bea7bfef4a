package audit

import (
	"encoding/json"
	"fmt"
	"sort"
	"testing"

	"loft/internal/analysis"
	"loft/internal/config"
	"loft/internal/flit"
	"loft/internal/probe"
	"loft/internal/topo"
)

// refRecorder is a plain transcription of the flight recorder over maps: a
// quantum's record is found through map[QuantumID], a packet's chain through
// map[(flow, seq)], and each record owns its hop slice. FuzzRecorder feeds it
// the same record stream as an Auditor and requires byte-identical
// snapshots and violation logs.
type refRecorder struct {
	arch          string
	now, total    uint64
	runs          int
	maxViolations int

	flows        []flowConf
	quanta       map[flit.QuantumID]int32
	packets      map[refKey]refChain
	slab         []refFlight
	free         []int32
	pktFlits     int
	quantumFlits uint64

	bookedQuanta, injectedQuanta, ejectedQuanta uint64
	injectedFlits, ejectedFlits, packetsDone    uint64

	violations      []Violation
	totalViolations uint64
	sweeps          uint64
	packetsChecked  uint64
	worstMarginPct  float64
}

type refKey struct {
	flow flit.FlowID
	seq  uint64
}

type refFlight struct {
	hops []hop
	pkt  uint64
	next int32
}

type refChain struct{ head, tail int32 }

func newRefRecorder(maxViolations int) *refRecorder {
	return &refRecorder{maxViolations: maxViolations}
}

func (r *refRecorder) begin(arch string, m topo.Mesh, flows []flit.Flow, pktFlits int, quantumFlits uint64, bound func(hops int) uint64) {
	r.arch = arch
	r.runs++
	r.packetsChecked += r.packetsDone
	for i := range r.flows {
		r.worstMarginPct = max(r.worstMarginPct, r.flows[i].marginPct())
	}
	r.quanta = map[flit.QuantumID]int32{}
	r.packets = map[refKey]refChain{}
	r.slab, r.free = nil, nil
	r.bookedQuanta, r.injectedQuanta, r.ejectedQuanta = 0, 0, 0
	r.injectedFlits, r.ejectedFlits, r.packetsDone = 0, 0, 0
	r.pktFlits, r.quantumFlits = pktFlits, quantumFlits
	n := 0
	for _, f := range flows {
		n = max(n, int(f.ID)+1)
	}
	r.flows = make([]flowConf, n)
	for _, f := range flows {
		h := analysis.FlowHops(m, f)
		r.flows[f.ID] = flowConf{registered: true, src: f.Src, dst: f.Dst, hops: h, bound: bound(h)}
	}
}

func (r *refRecorder) beginLOFT(cfg config.LOFT, flows []flit.Flow) {
	r.begin("loft", cfg.Mesh(), flows, cfg.PacketFlits, uint64(cfg.QuantumFlits),
		func(hops int) uint64 { return analysis.DelayBoundLOFTPath(cfg, hops) })
}

func (r *refRecorder) beginGSF(cfg config.GSF, flows []flit.Flow) {
	bound := analysis.DelayBoundGSF(cfg)
	if cfg.BestEffort {
		bound = 0
	}
	r.begin("gsf", cfg.Mesh(), flows, cfg.PacketFlits, 0, func(int) uint64 { return bound })
}

func (r *refRecorder) flow(id flit.FlowID) *flowConf {
	if uint(id) >= uint(len(r.flows)) || !r.flows[id].registered {
		return nil
	}
	return &r.flows[id]
}

func (r *refRecorder) violate(v Violation) {
	v.Cycle = r.now
	r.totalViolations++
	if len(r.violations) < r.maxViolations {
		r.violations = append(r.violations, v)
	}
}

func (r *refRecorder) take(first hop) int32 {
	if len(r.free) == 0 {
		r.free = append(r.free, int32(len(r.slab)))
		r.slab = append(r.slab, refFlight{})
	}
	i := r.free[len(r.free)-1]
	r.free = r.free[:len(r.free)-1]
	r.slab[i].hops = append(r.slab[i].hops, first)
	return i
}

func (r *refRecorder) link(key refKey, i int32) {
	r.slab[i].next = -1
	c, ok := r.packets[key]
	if ok {
		r.slab[c.tail].next = i
	} else {
		c.head = i
	}
	c.tail = i
	r.packets[key] = c
}

func (r *refRecorder) release(c refChain) {
	for i := c.head; i >= 0; i = r.slab[i].next {
		r.slab[i].hops = r.slab[i].hops[:0]
		r.free = append(r.free, i)
	}
}

func (r *refRecorder) timeline(c refChain) []HopEvent {
	var tl []HopEvent
	for i := c.head; i >= 0; i = r.slab[i].next {
		for _, h := range r.slab[i].hops {
			tl = append(tl, HopEvent{Cycle: h.cycle, Node: h.node, Link: h.link, Stage: stageNames[h.stage], Slot: h.slot, Spec: h.spec})
		}
	}
	sort.SliceStable(tl, func(i, j int) bool { return tl[i].Cycle < tl[j].Cycle })
	if len(tl) > 64 {
		tl = tl[:64]
	}
	return tl
}

// record mirrors Auditor.Record for every kind but KindTapViolation, which
// needs a watched table.
func (r *refRecorder) record(rec *probe.Record) {
	id := flit.QuantumID{Flow: flit.FlowID(rec.Flow), Seq: rec.Seq}
	switch rec.Kind {
	case probe.KindLAIssue:
		if rec.Loc != int32(topo.NumDirs) {
			return
		}
		if _, dup := r.quanta[id]; dup {
			r.violate(Violation{Kind: "duplicate-booking", Flow: int32(id.Flow),
				Detail: fmt.Sprintf("quantum %d of flow %d booked twice at the injection table", id.Seq, id.Flow)})
			return
		}
		r.bookedQuanta++
		i := r.take(hop{cycle: rec.Cycle, node: rec.Node, link: int32(topo.NumDirs), stage: stageBook, slot: rec.Arg / r.quantumFlits})
		r.slab[i].pkt = rec.Aux
		r.quanta[id] = i
	case probe.KindReserve:
		r.hop(id, rec, hop{link: rec.Loc, stage: stageReserve, slot: rec.Arg})
	case probe.KindDataInject:
		r.injectedQuanta++
		r.injectedFlits += rec.Aux
		r.hop(id, rec, hop{link: int32(topo.NumDirs), stage: stageInject})
	case probe.KindDataForward:
		r.hop(id, rec, hop{link: rec.Loc, stage: stageForward, spec: rec.Aux != 0})
	case probe.KindEject:
		r.ejectedQuanta++
		r.ejectedFlits += rec.Aux
		i, ok := r.quanta[id]
		if !ok {
			r.violate(Violation{Kind: "eject-unrecorded", Flow: int32(id.Flow),
				Detail: fmt.Sprintf("quantum %d of flow %d ejected with no flight record", id.Seq, id.Flow)})
			return
		}
		delete(r.quanta, id)
		r.slab[i].hops = append(r.slab[i].hops, hop{cycle: rec.Cycle, node: rec.Node, link: int32(topo.Local), stage: stageEject})
		r.link(refKey{id.Flow, r.slab[i].pkt}, i)
	case probe.KindGSFInject:
		r.injectedQuanta++
		key := refKey{flit.FlowID(rec.Flow), rec.Seq}
		if _, dup := r.packets[key]; dup {
			r.violate(Violation{Kind: "duplicate-injection", Flow: rec.Flow,
				Detail: fmt.Sprintf("packet %d of flow %d injected twice", rec.Seq, rec.Flow)})
			return
		}
		r.link(key, r.take(hop{cycle: rec.Cycle, node: rec.Node, link: int32(topo.NumDirs), stage: stageInject}))
	case probe.KindPacketDone:
		r.packetDone(rec)
	}
}

func (r *refRecorder) hop(id flit.QuantumID, rec *probe.Record, h hop) {
	i, ok := r.quanta[id]
	if !ok {
		if rec.Kind == probe.KindReserve {
			r.violate(Violation{Kind: "reserve-unrecorded", Flow: int32(id.Flow),
				Detail: fmt.Sprintf("look-ahead reservation for quantum %d of flow %d with no injection booking", id.Seq, id.Flow)})
		}
		return
	}
	h.cycle, h.node = rec.Cycle, rec.Node
	r.slab[i].hops = append(r.slab[i].hops, h)
}

func (r *refRecorder) packetDone(rec *probe.Record) {
	flow, pktSeq, injected, done := flit.FlowID(rec.Flow), rec.Seq, rec.Arg, rec.Cycle
	key := refKey{flow, pktSeq}
	c, recorded := r.packets[key]
	if recorded {
		delete(r.packets, key)
		defer r.release(c)
	}
	if r.arch == "gsf" {
		r.ejectedQuanta++
		if !recorded {
			r.violate(Violation{Kind: "eject-unrecorded", Flow: int32(flow),
				Detail: fmt.Sprintf("packet %d of flow %d ejected with no flight record", pktSeq, flow)})
		}
	}
	r.packetsDone++
	fc := r.flow(flow)
	if fc == nil {
		r.violate(Violation{Kind: "unknown-flow", Flow: int32(flow),
			Detail: fmt.Sprintf("completed packet %d belongs to unregistered flow %d", pktSeq, flow)})
		return
	}
	if done < injected {
		r.violate(Violation{Kind: "time-reversal", Flow: int32(flow),
			Detail: fmt.Sprintf("packet %d completed at %d before its injection at %d", pktSeq, done, injected)})
		return
	}
	lat := done - injected
	fc.hist.Observe(lat)
	if fc.quarantined {
		return
	}
	if fc.bound > 0 && lat > fc.bound {
		v := Violation{Kind: "delay-bound-exceeded", Flow: int32(flow), Packet: pktSeq,
			Latency: lat, Bound: fc.bound,
			Where: fmt.Sprintf("flow %d (%d hops)", flow, fc.hops),
			Detail: fmt.Sprintf("packet %d: network latency %d cycles exceeds the %d-cycle bound (injected %d, done %d)",
				pktSeq, lat, fc.bound, injected, done)}
		if recorded {
			v.Timeline = r.timeline(c)
		}
		r.violate(v)
	}
}

func (r *refRecorder) quarantine(flow flit.FlowID, maxRate float64) {
	fc := r.flow(flow)
	if fc == nil {
		r.violate(Violation{Kind: "unknown-flow", Flow: int32(flow),
			Detail: fmt.Sprintf("quarantine for unregistered flow %d", flow)})
		return
	}
	fc.quarantined = true
	fc.rateCap = maxRate
}

func (r *refRecorder) setFlowBound(flow flit.FlowID, bound uint64) {
	if fc := r.flow(flow); fc != nil {
		fc.bound = bound
	}
}

// finish mirrors FinishRun with no watched table and no registered check.
func (r *refRecorder) finish(now uint64) {
	r.now = now
	r.sweeps++
	if r.now == 0 {
		return
	}
	for id := range r.flows {
		fc := &r.flows[id]
		if !fc.quarantined {
			continue
		}
		rate := float64(fc.hist.Count()) * float64(r.pktFlits) / float64(r.now)
		if rate > fc.rateCap {
			r.violate(Violation{Kind: "quarantine-throttle-exceeded", Flow: int32(id),
				Where: fmt.Sprintf("flow %d", id),
				Detail: fmt.Sprintf("adversarial flow %d accepted %.4f flits/cycle, above its %.4f quarantine cap (%d packets over %d cycles)",
					id, rate, fc.rateCap, fc.hist.Count(), r.now)})
		}
	}
}

func (r *refRecorder) snapshot() Snapshot {
	s := Snapshot{
		Arch:            r.arch,
		Cycle:           r.now,
		TotalCycles:     r.total,
		Runs:            r.runs,
		Clean:           r.totalViolations == 0,
		Violations:      r.totalViolations,
		PacketsChecked:  r.packetsChecked + r.packetsDone,
		QuantaBooked:    r.bookedQuanta,
		QuantaInjected:  r.injectedQuanta,
		QuantaEjected:   r.ejectedQuanta,
		InFlightQuanta:  len(r.quanta),
		InFlightPackets: len(r.packets),
		InvariantSweeps: r.sweeps,
		WorstMarginPct:  r.worstMarginPct,
		ViolationLog:    r.violations,
	}
	for id := range r.flows {
		fc := &r.flows[id]
		if !fc.registered {
			continue
		}
		f := FlowConformance{
			Flow: int32(id), Src: int32(fc.src), Dst: int32(fc.dst),
			Hops: fc.hops, Bound: fc.bound,
			Packets: fc.hist.Count(), Worst: fc.hist.Max(), Mean: fc.hist.Mean(),
			Histogram: fc.hist.String(),
		}
		if fc.quarantined {
			f.Quarantined = true
			f.RateCap = fc.rateCap
			if r.now > 0 {
				f.AcceptedRate = float64(fc.hist.Count()) * float64(r.pktFlits) / float64(r.now)
			}
		} else {
			f.MarginPct = fc.marginPct()
			s.WorstMarginPct = max(s.WorstMarginPct, f.MarginPct)
		}
		s.Flows = append(s.Flows, f)
	}
	return s
}

// streamFlowIDs are the flow ids a fuzzed record may carry: registered ids,
// holes in the id range, ids past the table and negative ids.
var streamFlowIDs = [...]int32{0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, -1, -7, 40, 1<<31 - 1}

// streamSeq decodes a sequence number: six low bits scaled by a power that
// makes live sequences of one flow collide at every row length up to 2^10
// and span past it.
func streamSeq(b byte) uint64 { return uint64(b&0x3f) << [...]uint{0, 3, 6, 10}[b>>6] }

// lockStep drives an Auditor and a refRecorder with the record stream that
// data decodes to and fails at the first snapshot where they differ.
func lockStep(t *testing.T, data []byte) {
	a := New(Config{MaxViolations: 1 << 10})
	ref := newRefRecorder(1 << 10)
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	begin := func(b byte) {
		// Up to five flows out of ids 0..5; a missing id is a hole.
		var flows []flit.Flow
		for id := 0; id < 6; id++ {
			if b&(1<<id) != 0 {
				flows = append(flows, flit.Flow{ID: flit.FlowID(id), Src: topo.NodeID(id), Dst: topo.NodeID(63 - 9*id)})
			}
		}
		if b&0x80 != 0 {
			cfg := config.PaperGSF()
			cfg.BestEffort = b&0x40 != 0
			a.BeginGSF(cfg, cfg.Mesh(), flows)
			ref.beginGSF(cfg, flows)
		} else {
			cfg := config.PaperLOFT()
			a.BeginLOFT(cfg, cfg.Mesh(), flows)
			ref.beginLOFT(cfg, flows)
		}
	}
	compare := func(step int) {
		t.Helper()
		got, err := json.Marshal(a.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(ref.snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("step %d: snapshot\n%s\nwant\n%s", step, got, want)
		}
		gotLog, _ := json.Marshal(a.Violations())
		wantLog, _ := json.Marshal(ref.violations)
		if string(gotLog) != string(wantLog) {
			t.Fatalf("step %d: violation log\n%s\nwant\n%s", step, gotLog, wantLog)
		}
	}
	begin(next())
	kinds := [...]probe.Kind{probe.KindLAIssue, probe.KindLAIssue, probe.KindReserve, probe.KindDataInject,
		probe.KindDataForward, probe.KindEject, probe.KindEject, probe.KindPacketDone, probe.KindPacketDone,
		probe.KindGSFInject, probe.KindGSFInject, probe.KindSpecHit}
	var cycle uint64
	for step := 0; len(data) > 0; step++ {
		op, fb, sb, ab := next(), next(), next(), next()
		flow := streamFlowIDs[fb&0xf]
		cycle += uint64(fb >> 6)
		a.now, ref.now = cycle, cycle
		switch {
		case op < 0xf0:
			// The low six bits pick the kind, the top two are flags.
			k := kinds[int(op&0x3f)%len(kinds)]
			r := probe.Record{Event: probe.Event{Cycle: cycle, Kind: k, Node: int32(ab & 0x3f), Loc: int32(ab >> 6), Flow: flow, Seq: streamSeq(sb)}}
			switch k {
			case probe.KindLAIssue:
				// Three in four launches are injection-table bookings. The
				// departure is in cycles; the packet is the sequence halved,
				// so quanta 2k and 2k+1 share one.
				if ab>>6 != 0 {
					r.Loc = int32(topo.NumDirs)
				}
				r.Arg, r.Aux = 2*(cycle+uint64(ab)), streamSeq(sb)>>1
			case probe.KindReserve:
				r.Arg = cycle + uint64(ab)
			case probe.KindDataInject, probe.KindEject:
				r.Aux = uint64(ab & 7)
			case probe.KindDataForward:
				r.Aux = uint64(ab & 1)
			case probe.KindPacketDone:
				// Flag 7 names a GSF packet by its own sequence, not by its
				// quanta's; flag 6 moves the injection past the completion.
				r.Seq = streamSeq(sb) >> (1 - op>>7)
				r.Arg = cycle - min(cycle, uint64(ab)) + uint64(op>>6&1)*300
			}
			// The harness hands the auditor only the kinds it asks for.
			if a.Kinds()&probe.KindSetOf(k) != 0 {
				a.Record(&r)
				ref.record(&r)
			}
		case op < 0xf4:
			a.SetFlowBound(flit.FlowID(flow), uint64(ab))
			ref.setFlowBound(flit.FlowID(flow), uint64(ab))
		case op < 0xf8:
			rate := float64(ab) / 1024
			a.Quarantine(flit.FlowID(flow), rate)
			ref.quarantine(flit.FlowID(flow), rate)
		case op < 0xfc:
			compare(step)
		case op < 0xfe:
			a.FinishRun(cycle)
			ref.finish(cycle)
		default:
			begin(ab)
		}
	}
	compare(-1)
}

// xorshift is the seed corpus's generator.
type xorshift uint64

func (x *xorshift) next() byte {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return byte(*x >> 32)
}

// Record ops of lockStep's stream, by their index in its kind list.
const (
	opBook, opReserve, opInject, opForward, opEject, opDone, opGSFInject = 0, 2, 3, 4, 5, 7, 9
	opGSF                                                                = 0x80 // flag: a GSF packet's own sequence
)

// lifecycles encodes packets whole lifecycles on random flows, interleaved
// at random, for lockStep: a LOFT packet is two quanta booked, reserved,
// injected, forwarded and ejected, then completed; a GSF packet is injected,
// then completed. Every flow's bound is one cycle, so each completion with a
// record carries its timeline. One packet in eight never completes, and one
// stream in four begins a second run partway.
func lifecycles(seed uint64, packets int, gsf bool) []byte {
	x := xorshift(seed)
	begin := byte(0x3f) &^ (1 << (x.next() % 6))
	if gsf {
		begin |= 0x80
	}
	out := []byte{begin}
	for fb := byte(0); fb < 16; fb++ {
		out = append(out, 0xf0, fb, 0, 1)
	}
	type packet struct {
		fb, sb byte
		ops    []byte
	}
	var live []*packet
	for started := 0; started < packets || len(live) > 0; {
		if started < packets && (len(live) == 0 || x.next()%3 == 0) {
			p := &packet{fb: x.next(), sb: x.next() &^ 1}
			if gsf {
				p.ops = []byte{opGSFInject | opGSF, opDone | opGSF}
			} else {
				p.ops = []byte{opBook, opBook, opReserve, opReserve, opInject, opInject, opForward, opForward, opEject, opEject, opDone}
			}
			if x.next()%8 == 0 {
				p.ops = p.ops[:len(p.ops)/2+int(x.next())%(len(p.ops)/2)]
			}
			live = append(live, p)
			started++
			if started == packets/2 && seed%4 == 0 {
				out = append(out, 0xfe, 0, 0, begin^0x01)
			}
			continue
		}
		i := int(x.next()) % len(live)
		p := live[i]
		op := p.ops[0]
		p.ops = p.ops[1:]
		sb := p.sb
		// The two quanta alternate, so the second is often first to eject.
		if !gsf && op != opDone && len(p.ops)%2 == int(x.next()&1) {
			sb++
		}
		out = append(out, op, p.fb&^0x80, sb, x.next())
		if len(p.ops) == 0 {
			live = append(live[:i], live[i+1:]...)
		}
		if x.next()%16 == 0 {
			out = append(out, 0xfc, 0, 0, 0)
		}
	}
	return append(out, 0xfd, 0, 0, 0)
}

// FuzzRecorder runs random record streams through an Auditor and the
// refRecorder in lock step: out-of-order ejection within a flow, duplicate
// bookings and injections, reservations and ejections with no booking,
// negative and out-of-range flow ids, sequence spans past every row length,
// records that never complete and reruns that begin over them. The
// snapshots and violation logs must match byte for byte.
func FuzzRecorder(f *testing.F) {
	for seed := uint64(1); seed <= 16; seed++ {
		f.Add(lifecycles(seed*0x9e3779b97f4a7c15, 40, seed%2 == 0))
		x := xorshift(seed * 0x2545f4914f6cdd1d)
		noise := make([]byte, 64+16*seed)
		for i := range noise {
			noise[i] = x.next()
		}
		f.Add(noise)
	}
	f.Fuzz(lockStep)
}
