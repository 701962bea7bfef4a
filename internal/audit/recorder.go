package audit

import (
	"fmt"
	"sort"

	"loft/internal/analysis"
	"loft/internal/config"
	"loft/internal/flit"
	"loft/internal/probe"
	"loft/internal/stats"
	"loft/internal/topo"
)

// HopEvent is one reconstructed step of a packet's lifecycle.
type HopEvent struct {
	Cycle uint64 `json:"cycle"`
	Node  int32  `json:"node"`
	Link  int32  `json:"link"` // output direction; topo.NumDirs = injection link
	// Stage: "book" (injection-table grant), "reserve" (per-hop look-ahead
	// booking), "inject" (data leaves the NI), "forward" (switch
	// traversal), "eject" (data enters the sink).
	Stage string `json:"stage"`
	Slot  uint64 `json:"slot,omitempty"` // booked departure slot, slot units
	Spec  bool   `json:"spec,omitempty"` // speculative (ahead-of-schedule) traversal
}

// stage is a HopEvent's Stage while its packet is in flight.
type stage uint8

const (
	stageBook stage = iota
	stageReserve
	stageInject
	stageForward
	stageEject
)

var stageNames = [...]string{"book", "reserve", "inject", "forward", "eject"}

// hop is the in-flight form of a HopEvent: 32 bytes and no pointers. The
// HopEvent is built only when a violation's timeline is assembled.
type hop struct {
	cycle, slot uint64
	node, link  int32
	stage       stage
	spec        bool
}

// flight is one slab record: the hops of a LOFT quantum or a GSF packet.
// Look-ahead flits do not carry the packet sequence, so a quantum's record
// is found by its quantum sequence until it ejects and joins its packet's
// chain. A completed packet's records return to the free list, hop storage
// kept.
type flight struct {
	hops []hop
	pkt  uint64 // packet sequence, from the booking
	// next is the next record on the packet's chain, -1 at its tail; on the
	// free list, the next free record.
	next int32
}

// chain lists a packet's records in ejection order, which a timeline's
// stable sort by cycle keeps among events of one cycle.
type chain struct{ head, tail int32 }

// Row widths of seqRows: the first run's, and the widest a collision
// doubles them to.
const minRowWidth, maxRowWidth = 8, 1 << 10

// seqRows finds a value by flow id and sequence number. Each flow id below
// rows owns a row of slots; every row has the same power-of-two width, and a
// sequence lives in slot seq&mask of its flow's row. A slot stores seq+1
// next to its value (0 marks it empty), so a slot holding an aliased
// sequence is a miss, never a wrong value. When a sequence lands on a live
// one, every row doubles: the width follows the live span of a flow's
// sequences, not their count. What has no slot spills into a map: a flow id
// that is negative or past the rows, the sequence 2^64-1 (its seq+1 is 0),
// and collisions once the rows are maxRowWidth wide (a record that never
// completes stays live while its flow's sequences march on).
type seqRows[T any] struct {
	slots []seqSlot[T] // row f is slots[f*(mask+1):][:mask+1]
	rows  int
	mask  uint64
	live  int // values held, slots and spill
	spill map[seqKey]T
}

type seqSlot[T any] struct {
	seq1 uint64 // sequence + 1; 0 = empty
	v    T
}

type seqKey struct {
	flow flit.FlowID
	seq  uint64
}

// reset empties the rows and sizes them for flow ids 0..rows-1, keeping
// the width and the storage of earlier runs.
func (s *seqRows[T]) reset(rows int) {
	s.rows, s.live = rows, 0
	s.mask = max(s.mask, minRowWidth-1)
	n := rows * int(s.mask+1)
	if cap(s.slots) < n {
		s.slots = make([]seqSlot[T], n)
	} else {
		s.slots = s.slots[:n]
		clear(s.slots)
	}
	clear(s.spill)
}

// slot returns the slot of (flow, seq), nil when it has none.
func (s *seqRows[T]) slot(flow flit.FlowID, seq uint64) *seqSlot[T] {
	if uint(flow) >= uint(s.rows) || seq+1 == 0 {
		return nil
	}
	return &s.slots[uint64(flow)*(s.mask+1)+seq&s.mask]
}

func (s *seqRows[T]) get(flow flit.FlowID, seq uint64) (T, bool) {
	if sl := s.slot(flow, seq); sl != nil && sl.seq1 == seq+1 {
		return sl.v, true
	}
	if len(s.spill) == 0 {
		var zero T
		return zero, false
	}
	v, ok := s.spill[seqKey{flow, seq}]
	return v, ok
}

// set stores v for (flow, seq), in place of any value it holds.
func (s *seqRows[T]) set(flow flit.FlowID, seq uint64, v T) {
	sl := s.slot(flow, seq)
	if sl != nil && sl.seq1 == seq+1 {
		sl.v = v
		return
	}
	k := seqKey{flow, seq}
	if len(s.spill) > 0 {
		if _, ok := s.spill[k]; ok {
			s.spill[k] = v
			return
		}
	}
	s.live++
	for sl != nil && sl.seq1 != 0 {
		if s.mask+1 >= maxRowWidth {
			sl = nil
			break
		}
		s.grow()
		sl = s.slot(flow, seq)
	}
	if sl == nil {
		if s.spill == nil {
			s.spill = make(map[seqKey]T)
		}
		s.spill[k] = v
		return
	}
	sl.seq1, sl.v = seq+1, v
}

// remove deletes and returns the value of (flow, seq).
func (s *seqRows[T]) remove(flow flit.FlowID, seq uint64) (T, bool) {
	if sl := s.slot(flow, seq); sl != nil && sl.seq1 == seq+1 {
		v := sl.v
		*sl = seqSlot[T]{}
		s.live--
		return v, true
	}
	var zero T
	if len(s.spill) == 0 {
		return zero, false
	}
	k := seqKey{flow, seq}
	v, ok := s.spill[k]
	if ok {
		delete(s.spill, k)
		s.live--
	}
	return v, ok
}

// grow doubles every row. Sequences apart in a row stay apart in the wider
// one.
func (s *seqRows[T]) grow() {
	old, w := s.slots, s.mask+1
	s.mask = 2*w - 1
	s.slots = make([]seqSlot[T], s.rows*int(2*w))
	for i, sl := range old {
		if sl.seq1 != 0 {
			s.slots[uint64(i)/w*(2*w)+(sl.seq1-1)&s.mask] = sl
		}
	}
}

// flowConf is the per-flow conformance state: the analytical bound and the
// observed latency distribution.
type flowConf struct {
	registered bool // a flow of the run, not a hole in the id range
	src, dst   topo.NodeID
	hops       int
	bound      uint64 // 0 = best-effort, no bound
	hist       stats.Histogram
	// quarantined marks a flow the fault plan drives adversarially: its
	// delay-bound check is suspended (it misbehaves on purpose) and
	// replaced by an end-of-run throttle check against rateCap.
	quarantined bool
	rateCap     float64 // flits/cycle the scheduler may grant it
}

// marginPct is the flow's worst observed latency as a percentage of its
// bound; 0 for a best-effort or quarantined flow, which has no bound.
func (fc *flowConf) marginPct() float64 {
	if fc.quarantined || fc.bound == 0 {
		return 0
	}
	return 100 * float64(fc.hist.Max()) / float64(fc.bound)
}

// recorder is the flight-recorder state, reset per run. flows is indexed by
// flow id. quanta finds an in-flight quantum's record by flow and quantum
// sequence, packets a packet's chain by flow and packet sequence. Records
// come from slab in chunks, each chunk's hop storage one array cut stride
// hops per record; free heads the list of records no packet holds.
type recorder struct {
	flows   []flowConf
	quanta  seqRows[int32]
	packets seqRows[chain]
	slab    []flight
	free    int32
	stride  int
	// pktFlits is the architecture's packet size, for converting completed
	// packet counts into accepted flit rates (quarantine throttle checks).
	pktFlits int
	// quantumFlits converts a LOFT booking's departure cycle back to slots.
	quantumFlits uint64

	bookedQuanta   uint64
	injectedQuanta uint64
	ejectedQuanta  uint64
	injectedFlits  uint64
	ejectedFlits   uint64
	packetsDone    uint64
}

// register arms the conformance state of flows, indexed by flow id, each
// with its delay bound over its hop count, and empties the recorder. A
// record holds stride hops before its hop list reallocates.
func (r *recorder) register(m topo.Mesh, flows []flit.Flow, stride func(hops int) int, bound func(hops int) uint64) {
	n := 0
	for _, f := range flows {
		n = max(n, int(f.ID)+1)
	}
	*r = recorder{flows: make([]flowConf, n), quanta: r.quanta, packets: r.packets, free: -1, stride: 1}
	for _, f := range flows {
		h := analysis.FlowHops(m, f)
		r.flows[f.ID] = flowConf{registered: true, src: f.Src, dst: f.Dst, hops: h, bound: bound(h)}
		r.stride = max(r.stride, stride(h))
	}
	r.quanta.reset(n)
	r.packets.reset(n)
}

// flow returns flow id's conformance state, nil when it is not registered.
func (r *recorder) flow(id flit.FlowID) *flowConf {
	if uint(id) >= uint(len(r.flows)) || !r.flows[id].registered {
		return nil
	}
	return &r.flows[id]
}

// take returns a free slab record holding first. When none is free it adds
// a chunk as large as the slab.
func (r *recorder) take(first hop) int32 {
	if r.free < 0 {
		base, n := len(r.slab), max(len(r.slab), 16)
		r.slab = append(r.slab, make([]flight, n)...)
		hops := make([]hop, n*r.stride)
		for j := n - 1; j >= 0; j-- {
			f := &r.slab[base+j]
			f.hops = hops[j*r.stride : j*r.stride : (j+1)*r.stride]
			f.next, r.free = r.free, int32(base+j)
		}
	}
	i := r.free
	f := &r.slab[i]
	r.free = f.next
	f.hops = append(f.hops, first)
	return i
}

// link appends slab record i to the chain of packet seq of flow.
func (r *recorder) link(flow flit.FlowID, seq uint64, i int32) {
	r.slab[i].next = -1
	c, ok := r.packets.get(flow, seq)
	if ok {
		r.slab[c.tail].next = i
	} else {
		c.head = i
	}
	c.tail = i
	r.packets.set(flow, seq, c)
}

// release returns a completed packet's records to the free list.
func (r *recorder) release(c chain) {
	for i := c.head; i >= 0; {
		f := &r.slab[i]
		next := f.next
		f.hops = f.hops[:0]
		f.next, r.free = r.free, i
		i = next
	}
}

// timeline renders a packet's chain as a violation timeline: its events in
// ejection order, stable-sorted by cycle, at most 64 of them.
func (r *recorder) timeline(c chain) []HopEvent {
	var tl []HopEvent
	for i := c.head; i >= 0; i = r.slab[i].next {
		for _, h := range r.slab[i].hops {
			tl = append(tl, HopEvent{Cycle: h.cycle, Node: h.node, Link: h.link, Stage: stageNames[h.stage], Slot: h.slot, Spec: h.spec})
		}
	}
	sort.SliceStable(tl, func(i, j int) bool { return tl[i].Cycle < tl[j].Cycle })
	const maxTimeline = 64
	if len(tl) > maxTimeline {
		tl = tl[:maxTimeline]
	}
	return tl
}

// BeginLOFT (re)arms the auditor for one LOFT run: per-flow delay bounds
// over the full implemented path (analysis.DelayBoundLOFTPath) and fresh
// recorder state. Called by loft.New before the run starts; violations and
// totals accumulate across runs.
func (a *Auditor) BeginLOFT(cfg config.LOFT, m topo.Mesh, flows []flit.Flow) {
	if a == nil {
		return
	}
	a.beginRun("loft")
	// A quantum's record holds a book, an inject and an eject, plus a
	// reservation and a forward at each router of its route.
	a.rec.register(m, flows, func(hops int) int { return 2*hops + 5 },
		func(hops int) uint64 { return analysis.DelayBoundLOFTPath(cfg, hops) })
	a.rec.pktFlits = cfg.PacketFlits
	a.rec.quantumFlits = uint64(cfg.QuantumFlits)
}

// BeginGSF (re)arms the auditor for one GSF run: the path-independent GSF
// bound for every flow (no bound in best-effort mode, where the QoS
// machinery is disabled).
func (a *Auditor) BeginGSF(cfg config.GSF, m topo.Mesh, flows []flit.Flow) {
	if a == nil {
		return
	}
	a.beginRun("gsf")
	bound := analysis.DelayBoundGSF(cfg)
	if cfg.BestEffort {
		bound = 0
	}
	// A packet's record holds its injection alone.
	a.rec.register(m, flows, func(int) int { return 1 }, func(int) uint64 { return bound })
	a.rec.pktFlits = cfg.PacketFlits
}

// Kinds returns the record kinds Record consumes for the architecture the
// auditor is armed for (none for a nil auditor). A LOFT quantum is followed
// from its injection-table booking (the NI's la-issue) through every hop; a
// GSF packet from head-flit injection to completion.
func (a *Auditor) Kinds() probe.KindSet {
	switch {
	case a == nil:
		return 0
	case a.arch == "gsf":
		return probe.KindSetOf(probe.KindGSFInject, probe.KindPacketDone)
	}
	return probe.KindSetOf(probe.KindLAIssue, probe.KindReserve, probe.KindDataInject, probe.KindDataForward,
		probe.KindEject, probe.KindPacketDone, probe.KindTapViolation)
}

// Record is the flight recorder's one entry point: the harness hands it, at
// the cycle barrier and in emission order, every staged record whose kind
// is in Kinds.
func (a *Auditor) Record(r *probe.Record) {
	if a == nil {
		return
	}
	id := flit.QuantumID{Flow: flit.FlowID(r.Flow), Seq: r.Seq}
	switch r.Kind {
	case probe.KindLAIssue:
		if r.Loc == int32(topo.NumDirs) {
			a.book(id, r)
		}
	case probe.KindReserve:
		a.hop(id, r, hop{link: r.Loc, stage: stageReserve, slot: r.Arg})
	case probe.KindDataInject:
		a.rec.injectedQuanta++
		a.rec.injectedFlits += r.Aux
		a.hop(id, r, hop{link: int32(topo.NumDirs), stage: stageInject})
	case probe.KindDataForward:
		a.hop(id, r, hop{link: r.Loc, stage: stageForward, spec: r.Aux != 0})
	case probe.KindEject:
		a.eject(id, r)
	case probe.KindGSFInject:
		a.gsfInject(r)
	case probe.KindPacketDone:
		a.packetDone(r)
	case probe.KindTapViolation:
		a.tapViolation(r.Arg)
	}
}

// book records an injection-table grant: the birth of a quantum's flight
// record. The record's Arg is the booked departure in cycles, Aux the packet
// sequence.
func (a *Auditor) book(id flit.QuantumID, r *probe.Record) {
	if _, dup := a.rec.quanta.get(id.Flow, id.Seq); dup {
		a.violate(Violation{Kind: "duplicate-booking", Flow: int32(id.Flow),
			Detail: fmt.Sprintf("quantum %d of flow %d booked twice at the injection table", id.Seq, id.Flow)})
		return
	}
	a.rec.bookedQuanta++
	i := a.rec.take(hop{cycle: r.Cycle, node: r.Node, link: int32(topo.NumDirs), stage: stageBook, slot: r.Arg / a.rec.quantumFlits})
	a.rec.slab[i].pkt = r.Aux
	a.rec.quanta.set(id.Flow, id.Seq, i)
}

// hop appends one step — a per-hop look-ahead reservation, the data leaving
// its NI, a switch traversal — to a quantum's timeline. Only a reservation
// for a quantum that was never booked is an error: the data path is
// cross-checked by the quantum ledger instead.
func (a *Auditor) hop(id flit.QuantumID, r *probe.Record, h hop) {
	i, ok := a.rec.quanta.get(id.Flow, id.Seq)
	if !ok {
		if r.Kind == probe.KindReserve {
			a.violate(Violation{Kind: "reserve-unrecorded", Flow: int32(id.Flow),
				Detail: fmt.Sprintf("look-ahead reservation for quantum %d of flow %d with no injection booking", id.Seq, id.Flow)})
		}
		return
	}
	h.cycle, h.node = r.Cycle, r.Node
	a.rec.slab[i].hops = append(a.rec.slab[i].hops, h)
}

// eject moves an ejected quantum's record onto its packet's chain.
func (a *Auditor) eject(id flit.QuantumID, r *probe.Record) {
	a.rec.ejectedQuanta++
	a.rec.ejectedFlits += r.Aux
	i, ok := a.rec.quanta.remove(id.Flow, id.Seq)
	if !ok {
		a.violate(Violation{Kind: "eject-unrecorded", Flow: int32(id.Flow),
			Detail: fmt.Sprintf("quantum %d of flow %d ejected with no flight record", id.Seq, id.Flow)})
		return
	}
	f := &a.rec.slab[i]
	f.hops = append(f.hops, hop{cycle: r.Cycle, node: r.Node, link: int32(topo.Local), stage: stageEject})
	a.rec.link(id.Flow, f.pkt, i)
}

// gsfInject records a GSF packet's head-flit injection: a one-event record
// that is its packet's whole chain.
func (a *Auditor) gsfInject(r *probe.Record) {
	a.rec.injectedQuanta++
	flow := flit.FlowID(r.Flow)
	if _, dup := a.rec.packets.get(flow, r.Seq); dup {
		a.violate(Violation{Kind: "duplicate-injection", Flow: r.Flow,
			Detail: fmt.Sprintf("packet %d of flow %d injected twice", r.Seq, r.Flow)})
		return
	}
	a.rec.link(flow, r.Seq, a.rec.take(hop{cycle: r.Cycle, node: r.Node, link: int32(topo.NumDirs), stage: stageInject}))
}

// packetDone verdicts one completed packet: its network latency (injection
// of the first quantum or head flit to ejection of the last) against the
// flow's analytical bound — the full-path LOFT bound or the
// path-independent GSF one. Exceeding the bound is a hard audit failure
// carrying the packet's reconstructed hop-by-hop timeline. A GSF packet is
// also its own ejection: it must have a flight record.
func (a *Auditor) packetDone(r *probe.Record) {
	flow, pktSeq, injected, done := flit.FlowID(r.Flow), r.Seq, r.Arg, r.Cycle
	c, recorded := a.rec.packets.remove(flow, pktSeq)
	if recorded {
		defer a.rec.release(c)
	}
	if a.arch == "gsf" {
		a.rec.ejectedQuanta++
		if !recorded {
			a.violate(Violation{Kind: "eject-unrecorded", Flow: int32(flow),
				Detail: fmt.Sprintf("packet %d of flow %d ejected with no flight record", pktSeq, flow)})
		}
	}
	a.rec.packetsDone++
	fc := a.rec.flow(flow)
	if fc == nil {
		a.violate(Violation{Kind: "unknown-flow", Flow: int32(flow),
			Detail: fmt.Sprintf("completed packet %d belongs to unregistered flow %d", pktSeq, flow)})
		return
	}
	if done < injected {
		a.violate(Violation{Kind: "time-reversal", Flow: int32(flow),
			Detail: fmt.Sprintf("packet %d completed at %d before its injection at %d", pktSeq, done, injected)})
		return
	}
	lat := done - injected
	fc.hist.Observe(lat)
	if fc.quarantined {
		// An adversarial flow exceeds its reservation on purpose; its
		// per-packet bound is meaningless. checkQuarantines verdicts its
		// accepted rate at run end instead.
		return
	}
	if fc.bound > 0 && lat > fc.bound {
		v := Violation{Kind: "delay-bound-exceeded", Flow: int32(flow), Packet: pktSeq,
			Latency: lat, Bound: fc.bound,
			Where: fmt.Sprintf("flow %d (%d hops)", flow, fc.hops),
			Detail: fmt.Sprintf("packet %d: network latency %d cycles exceeds the %d-cycle bound (injected %d, done %d)",
				pktSeq, lat, fc.bound, injected, done)}
		if recorded {
			v.Timeline = a.rec.timeline(c)
		}
		a.violate(v)
	}
}

// Quarantine marks a flow as deliberately adversarial (fault.Plan): its
// per-packet delay-bound check is suspended and FinishRun instead asserts
// the scheduler throttled it to at most maxRate flits/cycle — the QoS
// isolation claim from the victim's side of the fence. Must be called
// after Begin* (which resets the per-run flow table).
func (a *Auditor) Quarantine(flow flit.FlowID, maxRate float64) {
	if a == nil {
		return
	}
	fc := a.rec.flow(flow)
	if fc == nil {
		a.violate(Violation{Kind: "unknown-flow", Flow: int32(flow),
			Detail: fmt.Sprintf("quarantine for unregistered flow %d", flow)})
		return
	}
	fc.quarantined = true
	fc.rateCap = maxRate
}

// checkQuarantines verdicts every quarantined flow's accepted rate against
// its cap at run end (called by FinishRun, when `now` spans the full run).
func (a *Auditor) checkQuarantines() {
	if a.now == 0 {
		return
	}
	for id := range a.rec.flows {
		fc := &a.rec.flows[id]
		if !fc.quarantined {
			continue
		}
		rate := float64(fc.hist.Count()) * float64(a.rec.pktFlits) / float64(a.now)
		if rate > fc.rateCap {
			a.violate(Violation{Kind: "quarantine-throttle-exceeded", Flow: int32(id),
				Where: fmt.Sprintf("flow %d", id),
				Detail: fmt.Sprintf("adversarial flow %d accepted %.4f flits/cycle, above its %.4f quarantine cap (%d packets over %d cycles)",
					id, rate, fc.rateCap, fc.hist.Count(), a.now)})
		}
	}
}

// SetFlowBound overrides one flow's delay bound (test hook for exercising
// the violation/timeline path without breaking the scheduler).
func (a *Auditor) SetFlowBound(flow flit.FlowID, bound uint64) {
	if a == nil {
		return
	}
	if fc := a.rec.flow(flow); fc != nil {
		fc.bound = bound
	}
}

// RecorderCounts returns the flight recorder's quantum ledger (booked,
// physically injected, ejected); architectures cross-check these against
// their own counters in a registered conservation check.
func (a *Auditor) RecorderCounts() (booked, injected, ejected uint64) {
	if a == nil {
		return 0, 0, 0
	}
	return a.rec.bookedQuanta, a.rec.injectedQuanta, a.rec.ejectedQuanta
}

// FlowConformance is the per-flow verdict in a Snapshot.
type FlowConformance struct {
	Flow      int32   `json:"flow"`
	Src       int32   `json:"src"`
	Dst       int32   `json:"dst"` // -1: random destination per packet
	Hops      int     `json:"hops"`
	Bound     uint64  `json:"bound_cycles"` // 0: best-effort, unbounded
	Packets   uint64  `json:"packets"`
	Worst     uint64  `json:"worst_observed_cycles"`
	Mean      float64 `json:"mean_cycles"`
	MarginPct float64 `json:"worst_pct_of_bound"`
	Histogram string  `json:"histogram"`
	// Quarantined flows (adversarial under a fault plan) report their
	// accepted rate against the throttle cap instead of a bound margin.
	Quarantined  bool    `json:"quarantined,omitempty"`
	RateCap      float64 `json:"rate_cap,omitempty"`
	AcceptedRate float64 `json:"accepted_rate,omitempty"`
}

// Snapshot is the JSON conformance snapshot written as audit.json.
type Snapshot struct {
	Arch            string            `json:"arch"`
	Cycle           uint64            `json:"cycle"`
	TotalCycles     uint64            `json:"total_cycles"`
	Runs            int               `json:"runs"`
	Clean           bool              `json:"clean"`
	Violations      uint64            `json:"violations"`
	PacketsChecked  uint64            `json:"packets_checked"`
	QuantaBooked    uint64            `json:"quanta_booked"`
	QuantaInjected  uint64            `json:"quanta_injected"`
	QuantaEjected   uint64            `json:"quanta_ejected"`
	InFlightQuanta  int               `json:"in_flight_quanta"`
	InFlightPackets int               `json:"in_flight_packets"`
	InvariantSweeps uint64            `json:"invariant_sweeps"`
	GrantChecks     uint64            `json:"grant_checks"`
	WorstMarginPct  float64           `json:"worst_pct_of_bound"`
	Flows           []FlowConformance `json:"flows"`
	ViolationLog    []Violation       `json:"violation_log,omitempty"`
}

// Snapshot assembles the current audit state. Must be called from the
// simulation thread (it reads the live recorder rows and counters). The violations, checked
// packets, worst margin, sweeps and grant checks cover every run since New;
// the per-flow rows, the quantum ledger and the in-flight counts are the
// last run's.
func (a *Auditor) Snapshot() Snapshot {
	if a == nil {
		return Snapshot{Clean: true}
	}
	s := Snapshot{
		Arch:            a.arch,
		Cycle:           a.now,
		TotalCycles:     a.totalCycles,
		Runs:            a.runs,
		Clean:           a.totalViolations == 0,
		Violations:      a.totalViolations,
		PacketsChecked:  a.packetsChecked + a.rec.packetsDone,
		QuantaBooked:    a.rec.bookedQuanta,
		QuantaInjected:  a.rec.injectedQuanta,
		QuantaEjected:   a.rec.ejectedQuanta,
		InFlightQuanta:  a.rec.quanta.live,
		InFlightPackets: a.rec.packets.live,
		InvariantSweeps: a.sweeps,
		GrantChecks:     a.grantChecksSoFar(),
		WorstMarginPct:  a.worstMarginPct,
		ViolationLog:    a.violations,
	}
	for id := range a.rec.flows {
		fc := &a.rec.flows[id]
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
			if a.now > 0 {
				f.AcceptedRate = float64(fc.hist.Count()) * float64(a.rec.pktFlits) / float64(a.now)
			}
		} else {
			f.MarginPct = fc.marginPct()
			s.WorstMarginPct = max(s.WorstMarginPct, f.MarginPct)
		}
		s.Flows = append(s.Flows, f)
	}
	return s
}

// Summary renders the audit verdict as human-readable lines.
func (a *Auditor) Summary() []string {
	if a == nil {
		return nil
	}
	s := a.Snapshot()
	lines := []string{
		fmt.Sprintf("audit: %d run(s) (%s), %d invariant sweep(s) over %d table(s), %d per-grant checks",
			s.Runs, s.Arch, s.InvariantSweeps, a.tablesWatched+len(a.tables), s.GrantChecks),
		fmt.Sprintf("audit: %d packet(s) checked against delay bounds, worst case at %.1f%% of bound",
			s.PacketsChecked, s.WorstMarginPct),
	}
	if s.Clean {
		lines = append(lines, "audit: PASS — no invariant or conformance violations")
	} else {
		lines = append(lines, fmt.Sprintf("audit: FAIL — %d violation(s); first: %s", s.Violations, a.violations[0].String()))
	}
	return lines
}
