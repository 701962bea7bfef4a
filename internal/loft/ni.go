package loft

import (
	"loft/internal/fault"
	"loft/internal/flit"
	"loft/internal/probe"
	"loft/internal/topo"
	"loft/internal/traffic"
)

// pendQuantum is a quantum waiting at the source NI, either unbooked (its
// look-ahead flit not yet admitted by the injection-link scheduler) or
// booked with a departure slot on the injection link.
type pendQuantum struct {
	q          Quantum
	booked     bool
	departSlot uint64
	// faultDenied marks a quantum whose injection-link forward was denied
	// by an active fault; its eventual crossing counts as a retry.
	faultDenied bool
}

// flowQ is the per-flow source queue. LOFT needs no large source buffers
// (unlike GSF's 2000-flit queues) — quanta wait here only while the flow's
// reservations are exhausted or the packet just arrived.
type flowQ struct {
	id    flit.FlowID
	queue []pendQuantum
	next  uint64 // per-flow quantum sequence
	// failVersion suppresses re-requests until the injection table state
	// changes (see lsf.Table.Version).
	failVersion uint64
}

// netIface is the network interface of one node: packet generation,
// quantum segmentation, injection-link scheduling (the injection link runs
// the same framed output reservation table as any router link) and data
// forwarding into the router's local input port.
type netIface struct {
	n        *Node
	injector *traffic.Injector
	flows    []*flowQ
	byFlow   map[flit.FlowID]*flowQ
	rr       int
	// queued counts the quanta in every flow queue: the source backlog.
	queued int
}

func (ni *netIface) init(n *Node, injector *traffic.Injector) {
	ni.n = n
	ni.injector = injector
	ni.byFlow = make(map[flit.FlowID]*flowQ)
}

func (ni *netIface) flowQueue(id flit.FlowID) *flowQ {
	if q, ok := ni.byFlow[id]; ok {
		return q
	}
	return ni.newFlowQueue(id)
}

// newFlowQueue builds a flow's queue on its first packet. A run sees each
// flow once, so this is setup amortized over the whole run; out of line so
// the slow path stays out of flowQueue's inlined fast path.
//
//go:noinline
func (ni *netIface) newFlowQueue(id flit.FlowID) *flowQ {
	q := &flowQ{id: id}
	// The NI queue is bounded to NIQueueFlits across all flows (generate
	// drops beyond it), so one flow can hold at most that many quanta;
	// reserving the bound keeps steady-state enqueues allocation-free.
	q.queue = make([]pendQuantum, 0, ni.n.cfg.NIQueueFlits/ni.n.cfg.QuantumFlits)
	ni.byFlow[id] = q
	ni.flows = append(ni.flows, q)
	return q
}

// generate polls the traffic injector and segments fresh packets into
// quanta. Packets arriving to a full NI queue are dropped: LOFT carries no
// large source buffers (Table 2), so saturation shows up as drops and a
// bounded queueing delay rather than an unbounded backlog.
func (ni *netIface) generate(now uint64) {
	n := ni.n
	q := n.cfg.QuantumFlits
	limit := n.cfg.NIQueueFlits / q
	for _, pkt := range ni.injector.Next(now) {
		if ni.queued+(pkt.Flits+q-1)/q > limit {
			n.stats.Drops++
			continue
		}
		fq := ni.flowQueue(pkt.Flow)
		quanta := (pkt.Flits + q - 1) / q
		remaining := pkt.Flits
		for i := 0; i < quanta; i++ {
			flits := q
			if remaining < q {
				flits = remaining
			}
			remaining -= flits
			fq.queue = append(fq.queue, pendQuantum{q: Quantum{
				ID:        flit.QuantumID{Flow: pkt.Flow, Seq: fq.next},
				Src:       pkt.Src,
				Dst:       pkt.Dst,
				PktSeq:    pkt.Seq,
				PktQuanta: quanta,
				Flits:     flits,
				Created:   pkt.Created,
			}})
			fq.next++
		}
		ni.queued += quanta
	}
}

// book runs the injection-link scheduler: at most one quantum per cycle
// books its injection slot and launches its look-ahead flit into the
// look-ahead network (a look-ahead flit always precedes its data, §3.2).
// Flows are served round-robin; a throttled flow (reservations exhausted)
// does not block the others.
func (ni *netIface) book(now uint64) {
	n := ni.n
	if len(ni.flows) == 0 || n.la.freeLocal() == 0 {
		return
	}
	slot := n.slotOf(now)
	t := n.outTables[topo.NumDirs]
	for i := 0; i < len(ni.flows); i++ {
		fq := ni.flows[(ni.rr+i)%len(ni.flows)]
		// The first unbooked quantum; bookings are in order per flow.
		var pq *pendQuantum
		for j := range fq.queue {
			if !fq.queue[j].booked {
				pq = &fq.queue[j]
				break
			}
		}
		if pq == nil {
			continue
		}
		if fq.failVersion == t.Version() {
			continue // denied at this table state already
		}
		depart, ok := t.Request(fq.id, pq.q.ID.Seq, slot+1)
		if !ok {
			fq.failVersion = t.Version()
			continue // throttled: the flow's reservations are exhausted
		}
		fq.failVersion = 0
		ni.rr = (ni.rr + i + 1) % len(ni.flows)
		pq.booked = true
		pq.departSlot = depart
		n.stats.InjectedQuanta++
		if n.obs.Wants(probe.KindLAIssue) {
			n.obs.EmitAux(now, probe.KindLAIssue, int32(n.id), int32(topo.NumDirs), int32(fq.id), pq.q.ID.Seq, depart*uint64(n.cfg.QuantumFlits), pq.q.PktSeq)
		}
		n.la.accept(&flit.Lookahead{
			Dst:        pq.q.Dst,
			Flow:       pq.q.ID.Flow,
			Quantum:    pq.q.ID.Seq,
			DepartPrev: depart,
			Src:        pq.q.Src,
			Flits:      pq.q.Flits,
			Created:    pq.q.Created,
		}, topo.Local, now)
		return
	}
}

// forward moves one booked quantum per slot from the NI into the router's
// local input port. The injection link is the node's output topo.NumDirs and
// follows the §4.3.1 rules of every output: the earliest booked quantum
// crosses at its slot (emergent) or, under speculative switching, ahead of
// it.
func (ni *netIface) forward(slot, now uint64) {
	n := ni.n
	var best *pendQuantum
	var bestFlow *flowQ
	for _, fq := range ni.flows {
		if len(fq.queue) == 0 || !fq.queue[0].booked {
			continue
		}
		pq := &fq.queue[0]
		if best == nil || pq.departSlot < best.departSlot {
			best, bestFlow = pq, fq
		}
	}
	if best == nil {
		return
	}
	emergent := best.departSlot <= slot
	if !emergent && !n.specSwitch {
		return
	}
	spec := n.classify(topo.NumDirs, best.q.ID, best.departSlot, slot)
	if !n.canForward(topo.NumDirs, spec) {
		if emergent {
			n.stats.EmergentDenied++
		}
		return
	}
	if n.faultDeny(topo.NumDirs, &best.q, &best.faultDenied, now) {
		return
	}
	n.depart(topo.NumDirs, &best.q, best.departSlot, spec, &best.faultDenied, now)
	// Pop by copying down instead of re-slicing off the front: the queue
	// keeps its backing array, so steady-state generate/forward cycles stop
	// reallocating. best aliases queue[0] — copy it out first.
	depart := best.departSlot
	q := best.q
	q.Injected = now
	copy(bestFlow.queue, bestFlow.queue[1:])
	bestFlow.queue = bestFlow.queue[:len(bestFlow.queue)-1]
	ni.queued--
	if n.obs.Wants(probe.KindDataInject) {
		n.obs.EmitAux(now, probe.KindDataInject, int32(n.id), int32(topo.NumDirs), int32(q.ID.Flow), q.ID.Seq, depart*uint64(n.cfg.QuantumFlits), uint64(q.Flits))
	}
	n.niData.Write(now, dataMsg{Q: q, Spec: spec, Depart: depart})
}

// sinkState is the destination PE model: it consumes one flit per cycle
// (one quantum per slot, §5.1), reassembles packets for latency accounting
// and returns the ejection link's credits.
type sinkState struct {
	n         *Node
	pending   map[pktKey]pktProgress
	pendVcred []uint64 // ejection-table credit returns awaiting a live tag
}

type pktProgress struct {
	quanta   int
	injected uint64 // earliest quantum injection cycle
}

// applyReturns flushes deferred ejection-table credit returns whose tags
// now fall inside the live slot window. An active eject credit-stall
// window withholds the whole queue; the existing deferral mechanism then
// replays it exactly once the window passes.
func (s *sinkState) applyReturns(now uint64) {
	if f := s.n.fault; f != nil && f.StallCredits(fault.DirEject, now) {
		if len(s.pendVcred) > 0 {
			s.n.stats.FaultsInjected++
		}
		return
	}
	t := s.n.outTables[topo.Local]
	limit := t.NowSlot() + uint64(t.WindowSlots())
	kept := s.pendVcred[:0]
	for _, tag := range s.pendVcred {
		if tag < limit {
			t.ReturnCredit(tag)
		} else {
			kept = append(kept, tag)
		}
	}
	s.pendVcred = kept
}

type pktKey struct {
	flow flit.FlowID
	seq  uint64
}

func (s *sinkState) init(n *Node) {
	s.n = n
	s.pending = make(map[pktKey]pktProgress)
}

// receive accepts a quantum from the ejection link during the given slot.
// departSlot is the quantum's booked ejection slot: the virtual-credit
// return must be tagged relative to the booking (departSlot+1), not the
// possibly-earlier physical delivery, to keep the cumulative ledger within
// capacity.
func (s *sinkState) receive(q Quantum, spec bool, slot, departSlot, now uint64) {
	n := s.n
	n.stats.EjectedQuanta++
	n.stats.EjectedFlits += uint64(q.Flits)
	if n.obs.Wants(probe.KindEject) {
		n.obs.EmitAux(now, probe.KindEject, int32(n.id), int32(q.Src), int32(q.ID.Flow), q.ID.Seq, 0, uint64(q.Flits))
	}
	// The quantum drains at link rate: its buffer slot frees next slot.
	if spec {
		s.n.pendSinkRet.Spec++
	} else {
		s.n.pendSinkRet.NonSpec++
	}
	// Return the ejection table's virtual credit (the sink plays the role
	// of the next router's input scheduler). Every delivered quantum
	// corresponds to exactly one ejection booking. The tag can fall one
	// slot beyond the live window when the booking took the last window
	// slot; the return is then deferred — applying a future-tagged return
	// later is exact because increments address absolute slots.
	s.pendVcred = append(s.pendVcred, departSlot+1)
	s.applyReturns(now)
	key := pktKey{flow: q.ID.Flow, seq: q.PktSeq}
	prog := s.pending[key]
	if prog.quanta == 0 || q.Injected < prog.injected {
		prog.injected = q.Injected
	}
	prog.quanta++
	if prog.quanta < q.PktQuanta {
		s.pending[key] = prog
		return
	}
	delete(s.pending, key)
	// The packet completes when its last flit crosses the ejection link:
	// the end of this slot.
	done := (slot + 1) * uint64(n.cfg.QuantumFlits)
	if n.obs.Wants(probe.KindPacketDone) {
		n.obs.EmitAux(done, probe.KindPacketDone, int32(n.id), -1, int32(q.ID.Flow), q.PktSeq, prog.injected, q.Created)
	}
}
