package loft

import (
	"fmt"

	"loft/internal/buffers"
	"loft/internal/config"
	"loft/internal/fault"
	"loft/internal/flit"
	"loft/internal/label"
	"loft/internal/lsf"
	"loft/internal/netsim"
	"loft/internal/perfmon"
	"loft/internal/probe"
	"loft/internal/sim"
	"loft/internal/topo"
)

// verifyLSF enables per-slot verification of incremental LSF bookkeeping
// (set by tests; expensive).
var verifyLSF = false

// inEntry is one row of an input reservation table (Fig. 5 bottom): the
// quantum identity recorded by its look-ahead flit on arrival, the expected
// data arrival, and — once the look-ahead flit passed the output scheduler —
// the booked departure slot.
type inEntry struct {
	q          Quantum
	outDir     topo.Dir
	arriveSlot uint64
	departSlot uint64
	booked     bool
	arrived    bool
	inSpec     bool // resides in this node's speculative buffer
	// faultDenied marks a quantum whose forward was denied by an active
	// fault; its eventual successful forward counts as a retry.
	faultDenied bool
	// next links the entry into its slab chain while live and into the
	// node's free list once retired.
	next *inEntry
}

// inputPort is one data-network input port: the input reservation table plus
// occupancy counters for the central (non-speculative) and speculative
// buffers (Fig. 9).
//
// The reservation table is a dense slab keyed by arrival slot: wire
// messages carry the upstream booking slot, so the chain at
// ring[arriveSlot & (portSlots-1)] resolves an entry without hashing or map
// allocation. A chain normally holds zero or one entries; it can hold more,
// because speculative forwards clear their table slot early and let the
// upstream link re-book the same absolute slot while the first quantum's
// entry is still live (and because distant slots are congruent modulo
// portSlots). Entries link through inEntry.next, into a chain while live and
// into the node's free list once retired, so the steady state allocates
// nothing. A node embeds its five ports and cuts their candidate lists from
// one array; their entries come from the node's one pool (Node.alloc).
type inputPort struct {
	dir  topo.Dir
	ring [portSlots]*inEntry // chain heads indexed by arriveSlot & (portSlots-1)
	// avail lists entries that are booked AND physically arrived — the
	// switching candidates — so per-slot arbitration does not scan the
	// whole input reservation table.
	avail       []*inEntry
	nonspecUsed int
	specUsed    int
}

// portSlots is the number of slab chains, a power of two. The live-entry
// count is bounded by buffer occupancy plus in-flight look-aheads (both
// small); spreading them over the reservation window's worth of chains keeps
// chains at length 0 or 1.
const portSlots = 64

// poolRows is the size of a node's entry pool: one input port's full
// central and speculative buffers plus every look-ahead VC slot of the node
// (194 rows with the paper's Table 1). An entry lives from its look-ahead
// flit's arrival until its quantum departs, so it holds a look-ahead slot,
// a buffer slot, or a booking its data has not yet crossed. The paper
// configuration's busiest node holds 158 at Case Study II's 0.95
// (TestEntryRowsHighWater); Node.allocSlow covers a workload that holds
// more.
func poolRows(cfg config.LOFT) int {
	return cfg.BufferQuanta() + cfg.SpecQuanta() + int(topo.NumDirs)*cfg.LAVirtualChannels*cfg.LAVCDepth
}

// alloc returns a recycled entry from the node's pool, or a fresh one once
// the pool is exhausted. The caller overwrites the whole entry, next
// included.
func (n *Node) alloc() *inEntry {
	if e := n.free; e != nil {
		n.free = e.next
		return e
	}
	return n.allocSlow()
}

// allocSlow is the pool-exhausted fallback: it heap-allocates, which only a
// workload holding more than poolRows entries at once reaches, so it is
// kept out of line: the slow path stays out of the fast path inlined into
// alloc's steady-state callers.
//
//go:noinline
func (n *Node) allocSlow() *inEntry {
	n.heapRows++
	return new(inEntry)
}

// lookup returns the live entry for quantum qid expecting arrival slot s,
// or nil.
func (ip *inputPort) lookup(s uint64, qid flit.QuantumID) *inEntry {
	for e := ip.ring[s&(portSlots-1)]; e != nil; e = e.next {
		if e.arriveSlot == s && e.q.ID == qid {
			return e
		}
	}
	return nil
}

// insert places a fresh entry at the head of its chain, panicking on a
// duplicate quantum identity in the chain. lookup matches on (arriveSlot,
// quantum), unique among live entries, so the order within a chain is not
// behaviour.
func (ip *inputPort) insert(e *inEntry, nodeID topo.NodeID) {
	head := &ip.ring[e.arriveSlot&(portSlots-1)]
	for old := *head; old != nil; old = old.next {
		if old.q.ID == e.q.ID {
			panic(fmt.Sprintf("loft: node %d: duplicate look-ahead for %+v", nodeID, e.q.ID))
		}
	}
	e.next = *head
	*head = e
}

// remove unlinks a live entry from input port in and retires it into the
// node's free list.
func (n *Node) remove(in topo.Dir, e *inEntry) {
	for p := &n.inputs[in].ring[e.arriveSlot&(portSlots-1)]; *p != nil; p = &(*p).next {
		if *p == e {
			*p = e.next
			e.next = n.free
			n.free = e
			return
		}
	}
	panic("loft: input reservation entry missing from slab")
}

// NodeStats aggregates per-node protocol events.
type NodeStats struct {
	InjectedQuanta uint64
	EjectedQuanta  uint64
	EjectedFlits   uint64
	// Drops counts packets rejected by a full NI queue (saturation).
	Drops uint64
	// LateArrivals counts slots where a booked departure passed before the
	// quantum physically arrived (a protocol stress indicator; zero in
	// correct steady state).
	LateArrivals uint64
	// EmergentDenied counts emergent quanta denied the link by a full real
	// buffer (§4.3.1 discusses why the speculative buffer makes this rare).
	EmergentDenied uint64
	SpecForwards   uint64 // quanta forwarded ahead of schedule
	SchedForwards  uint64 // quanta forwarded at their booked slot
	// FaultsInjected counts discrete fault applications on this node:
	// forward denials, withheld credit batches and stalled router slots.
	FaultsInjected uint64
	// FlitsLost counts flits in fault-denied forwards. Denied quanta are
	// never silently dropped — they retry — so this measures lost link
	// transmissions, not lost payload.
	FlitsLost uint64
	// Retries counts fault-denied quanta that later crossed their link.
	Retries uint64
}

// Node is one LOFT mesh node: data router, look-ahead router, network
// interface and sink.
type Node struct {
	id   topo.NodeID
	cfg  config.LOFT
	mesh topo.Mesh
	// specSwitch and statusReset cache cfg.SpeculativeSwitching() and
	// cfg.LocalStatusReset(), which the slot loop asks every cycle.
	specSwitch, statusReset bool

	// outTables are the framed output reservation tables, indexed by
	// output port: the four mesh outputs (nil at mesh edges), the ejection
	// link (topo.Local) and the NI→router injection link (topo.NumDirs),
	// which the NI schedules and forwards through like any router output.
	outTables [topo.NumDirs + 1]*lsf.Table
	// tables holds the node's tables themselves, built by one
	// lsf.NewTables: the injection table, then the mesh outputs that exist
	// and the ejection table. frameTick ticks them in this order.
	tables []lsf.Table

	inputs [topo.NumDirs]inputPort // topo.Local = from the NI
	// free lists the node's retired input reservation entries, which all
	// five ports take from and retire to. heapRows counts the entries
	// allocSlow took from the heap once the pool ran dry; like lag, it is
	// not behaviour, and no digest hashes it.
	free     *inEntry
	heapRows int
	// candidates counts the entries on the five inputs' avail lists.
	candidates int

	la   laRouter
	ni   netIface
	sink sinkState

	// Real credits toward each output's downstream input buffer pair
	// (§4.3.1's actual-credit signals), indexed like outTables: Local
	// tracks the sink, NumDirs the router's local input port. Only the
	// outputs with a table use theirs.
	credNonSpec [topo.NumDirs + 1]buffers.Credits
	credSpec    [topo.NumDirs + 1]buffers.Credits

	// Link registers, taken from the network's slab of each kind (see
	// wire). Out registers are written by this node; in registers alias the
	// neighbor's out registers. Nil at mesh edges.
	dataOut, dataIn     [4]*sim.Reg[dataMsg]
	laOut, laIn         [4]*sim.Reg[flit.Lookahead]
	vcredOut, vcredIn   [4]*sim.Reg[vcredMsg]
	rcredOut, rcredIn   [4]*sim.Reg[rcredMsg]
	laCredOut, laCredIn [4]*sim.Reg[laCredMsg]
	// niData carries quanta from the NI into the router local input port.
	niData sim.Reg[dataMsg]

	// Per-cycle accumulators flushed into the out registers. pendVcred[d]
	// always aliases vcredBuf[d][vcredSel[d]]: flush sends the filled buffer
	// on the wire and flips to the other one, so neither side copies. The
	// consumer finishes reading one cycle after the send, a full cycle
	// before the same buffer can be reused. The eight buffers are cut from
	// one array.
	pendVcred [4][]uint64
	vcredBuf  [4][2][]uint64
	vcredSel  [4]uint8
	// pendRcred[d] gathers the real credits freed at input d this cycle:
	// flush sends the mesh inputs' upstream, and the next drain returns
	// Local's to the injection link (output topo.NumDirs).
	pendRcred  [topo.NumDirs]rcredMsg
	pendLaCred [4]int
	// pendSinkRet returns the ejection link's real credits one cycle after
	// a quantum leaves the sink.
	pendSinkRet rcredMsg

	outRR [topo.NumDirs]rrState

	// linkBusy counts quanta forwarded per output (link utilization).
	linkBusy [topo.NumDirs]uint64

	// obs is the node's record stream, the stage of its harness slot:
	// everything the node reports about the simulation — probe events, the
	// auditor's recorder operations, statistics observations — is staged
	// there while it computes and replayed in node-id order at the cycle
	// barrier, under both engines. perf is the slot's stage timer (nil when
	// profiling is off).
	obs  *probe.Stage
	perf *perfmon.Timer
	// slot is the node's harness slot, whose link activity stamps tell drain
	// which neighbours wrote toward this node.
	slot *netsim.Slot

	// lag counts the slot-edge table ticks a quiet node deferred (see
	// quietTick); catchUp applies them. quietCycles counts the cycles the
	// node spent on the quiet path. Neither is behaviour: NodeStats, which
	// every digest hashes, does not hold them.
	lag         uint64
	quietCycles uint64

	// fault is this node's compiled fault-injection runtime (nil when no
	// plan is armed or the plan does not target this node). All its state
	// is node-local, so fault decisions are compute-phase pure and
	// worker-count independent.
	fault *fault.Node

	stats NodeStats
}

// rrState is a rotating priority pointer over input ports. Iterate it as
// dir(i) = (next + i) mod NumDirs rather than materializing an order array:
// the copy showed up as duffcopy in speculative-switching profiles.
type rrState struct{ next int }

// dir returns the i-th input direction in rotating-priority order.
func (r *rrState) dir(i int) topo.Dir { return topo.Dir((r.next + i) % int(topo.NumDirs)) }

func (r *rrState) granted(d topo.Dir) { r.next = (int(d) + 1) % int(topo.NumDirs) }

// init builds node id in place. linkFlows lists the flows the network will
// register on each link (traffic.Pattern.LinkFlows), which sizes the node's
// reservation tables so that installing them allocates nothing. rows is the
// node's entry pool, poolRows(cfg) entries cut from the network's array.
func (n *Node) init(id topo.NodeID, cfg config.LOFT, mesh topo.Mesh, slot *netsim.Slot, linkFlows map[topo.Link][]flit.FlowID, rows []inEntry) {
	*n = Node{id: id, cfg: cfg, mesh: mesh, obs: &slot.Stage, perf: slot.Perf, slot: slot,
		specSwitch: cfg.SpeculativeSwitching(), statusReset: cfg.LocalStatusReset()}
	params := lsf.Params{
		SlotsPerFrame: cfg.SlotsPerFrame(),
		Frames:        cfg.FrameWindow,
		BufferQuanta:  cfg.BufferQuanta(),
		Strict:        true,
		Yield:         cfg.YieldCondition,
	}
	// One spec per table: the injection link, then the mesh outputs with a
	// neighbor and the ejection link in direction order.
	var specs [topo.NumDirs + 1]lsf.Spec
	var dirs [topo.NumDirs + 1]topo.Dir
	k := 0
	for i := topo.North; i <= topo.NumDirs; i++ {
		d := (i + topo.NumDirs) % (topo.NumDirs + 1)
		if _, ok := mesh.Neighbor(id, d); d < topo.Local && !ok {
			continue
		}
		flows := linkFlows[topo.Link{From: id, D: d}]
		ids := 0
		for _, f := range flows {
			ids = max(ids, int(f)+1)
		}
		specs[k] = lsf.Spec{Name: label.New(tableName, int(id), int(d)), Flows: len(flows), IDs: ids}
		dirs[k] = d
		k++
	}
	n.tables = lsf.NewTables(params, specs[:k])
	for i, d := range dirs[:k] {
		n.outTables[d] = &n.tables[i]
		n.credNonSpec[d].Init(label.New(nonspecName, int(id), int(d)), cfg.BufferQuanta())
		n.credSpec[d].Init(label.New(specName, int(id), int(d)), cfg.SpecQuanta())
	}
	// Stamped traced or not: the auditor's taps read the records too.
	for i, d := range dirs[:k] {
		n.tables[i].SetStamp(int32(id), int32(d), cfg.QuantumFlits)
		n.tables[i].SetEmitter(n.obs, n.obs.Kinds())
	}
	for i := range rows {
		rows[i].next = n.free
		n.free = &rows[i]
	}
	// The candidate lists are sized so a new maximum does not allocate
	// mid-run; a port that exceeds its list grows it by append.
	avail := make([]*inEntry, int(topo.NumDirs)*portSlots)
	for d := topo.North; d < topo.NumDirs; d++ {
		n.inputs[d].dir, n.inputs[d].avail = d, carve(&avail, portSlots)[:0]
	}
	n.niData.Init(label.New(niDataName, int(id), 0))
	// A cycle books at most one quantum per output table, so at most
	// NumDirs virtual credits can accrue for a single input direction before
	// flush drains them; sized up so steady state never grows.
	tags := make([]uint64, 4*2*2*int(topo.NumDirs))
	for d := 0; d < 4; d++ {
		n.vcredBuf[d][0] = carve(&tags, 2*int(topo.NumDirs))[:0]
		n.vcredBuf[d][1] = carve(&tags, 2*int(topo.NumDirs))[:0]
		n.pendVcred[d] = n.vcredBuf[d][0]
	}
	n.la.init(n)
	n.ni.init(n, &slot.Injector)
	n.sink.init(n)
}

// carve cuts the next k elements off *buf, capped at k so that growing the
// piece reallocates instead of running into its neighbour.
func carve[T any](buf *[]T, k int) []T {
	s := (*buf)[:k:k]
	*buf = (*buf)[k:]
	return s
}

// slotOf returns the quantum slot containing cycle c.
func (n *Node) slotOf(c uint64) uint64 { return c / uint64(n.cfg.QuantumFlits) }

// Tick advances the node by one cycle. See the package comment for phase
// ordering; all cross-node communication flows through registers, so node
// iteration order does not affect results. A quiet node (see idle) takes
// quietTick instead, which does only the part of a cycle that can change
// its state.
func (n *Node) Tick(now uint64) {
	in := n.slot.Arrivals(now)
	if in == 0 && n.idle(now) {
		n.quietTick(now)
		return
	}
	n.perf.Begin(now)
	n.catchUp()
	if n.fault != nil {
		n.faultTick(now)
		in = allLinks // credits withheld by a stall replay on every link
	}
	n.drain(now, in)
	n.perf.Lap(perfmon.StageDrain)
	if now%uint64(n.cfg.QuantumFlits) == 0 {
		n.frameTick(now)
		n.perf.Lap(perfmon.StageFrame)
		slot := n.slotOf(now)
		if n.fault != nil && n.fault.RouterStalled(now) {
			// The switch pass freezes for this slot; bookings and
			// look-ahead routing continue, so frozen quanta go overdue
			// and forward as emergent once the stall lifts.
			n.stats.FaultsInjected++
		} else {
			n.forwardData(slot, now)
			n.ni.forward(slot, now)
		}
		n.perf.Lap(perfmon.StageSwitch)
	}
	n.ni.generate(now)
	n.ni.book(now)
	n.perf.Lap(perfmon.StageBooking)
	n.la.process(now)
	n.perf.Lap(perfmon.StageLookahead)
	n.flush(now)
	n.perf.Lap(perfmon.StageFlush)
}

// allLinks is the arrival set naming every mesh input.
const allLinks = 1<<topo.Local - 1

// idle reports whether the full Tick of cycle now, given that no neighbour
// wrote toward this node in the cycle before, would do nothing but tick
// the tables at a slot edge and poll the injector: no quantum waits in the
// NI or on the NI-to-router register, no look-ahead flit waits for its
// booking, no booked quantum waits for the switch, no credit return waits
// to be applied, and no fault runtime keeps time. Every term is a counter
// or a field, kept where quanta, flits and credits enter and leave.
func (n *Node) idle(now uint64) bool {
	return n.ni.queued == 0 && n.la.held == 0 && n.candidates == 0 &&
		n.pendSinkRet == (rcredMsg{}) && n.pendRcred[topo.Local] == (rcredMsg{}) &&
		len(n.sink.pendVcred) == 0 && n.fault == nil && !n.niData.Ready(now)
}

// quietTick is Tick for a quiet node: the slot-edge table maintenance and
// the injector poll. When the injector queues a quantum, the NI books it
// through the same book, process and flush steps as Tick.
//
// At a slot edge the table ticks are deferred instead (lag) while no table
// is observed, booked or due for a local status reset (deferrable): then a
// tick changes nothing but the table's clock, which catchUp advances
// arithmetically (lsf.Table.Advance) before anything reads or books a
// table — a full Tick, a quiet cycle that books, and the end of every Run
// (Network's settle hook).
func (n *Node) quietTick(now uint64) {
	n.quietCycles++
	n.perf.Begin(now)
	if now%uint64(n.cfg.QuantumFlits) == 0 {
		if now > 0 && (n.lag > 0 || n.deferrable()) {
			n.lag++
		} else {
			n.frameTick(now)
		}
		n.perf.Lap(perfmon.StageFrame)
	}
	n.ni.generate(now)
	if n.ni.queued > 0 {
		n.catchUp()
		n.ni.book(now)
		n.perf.Lap(perfmon.StageBooking)
		n.la.process(now)
		n.perf.Lap(perfmon.StageLookahead)
		n.flush(now)
		n.perf.Lap(perfmon.StageFlush)
		return
	}
	n.perf.Lap(perfmon.StageBooking)
}

// deferrable reports whether the tables' slot-edge ticks may lag: no table
// stages probe or audit records (each tick of such a table may emit), none
// has a booked slot (a tick may expire it) and none is due for a local
// status reset (frameTick would reset it). Quiet cycles change none of
// these, so the answer holds until the node next does anything.
func (n *Node) deferrable() bool {
	if verifyLSF {
		return false
	}
	for i := range n.tables {
		if t := &n.tables[i]; t.Observed() || !t.AllIdle() {
			return false
		}
	}
	if n.statusReset {
		for d, t := range n.outTables {
			if t != nil && n.resetDue(topo.Dir(d), t) {
				return false
			}
		}
	}
	return true
}

// catchUp applies the deferred table ticks, if any.
func (n *Node) catchUp() {
	if n.lag > 0 {
		n.advanceTables()
	}
}

// advanceTables is catchUp's slow path, out of line so the lag test inlines
// into every full Tick.
//
//go:noinline
func (n *Node) advanceTables() {
	for i := range n.tables {
		n.tables[i].Advance(n.lag)
	}
	n.lag = 0
}

// faultTick replays the armed plan's window boundaries crossing this cycle
// as probe timeline events, so a chaos run's trace shows exactly when each
// fault armed and lifted. The edge cursor must advance every cycle even
// with probing off, hence the single guarded emission inside the loop.
func (n *Node) faultTick(now uint64) {
	for _, e := range n.fault.Edges(now) {
		kind := probe.KindFaultDown
		if e.Up {
			kind = probe.KindFaultUp
		}
		if n.obs.Wants(kind) {
			dir, flow := int32(-1), int32(-1)
			if e.Ev.Kind != fault.RouterStall && e.Ev.Kind != fault.Adversary {
				dir = int32(e.Ev.Dir)
			}
			if e.Ev.Kind == fault.Adversary {
				flow = int32(e.Ev.Flow)
			}
			n.obs.EmitSeq(now, kind, int32(n.id), dir, flow, uint64(e.Ev.Kind), e.Ev.To)
		}
	}
}

// frameTick is the per-slot reservation-table maintenance that precedes the
// slot's switch pass: table ticks, deferred ejection credit returns, local
// status resets and (in debug runs) ledger verification.
func (n *Node) frameTick(now uint64) {
	if now > 0 {
		for i := range n.tables {
			n.tables[i].Tick()
		}
		n.sink.applyReturns(now)
	}
	if n.statusReset {
		n.maybeReset()
	}
	if verifyLSF {
		for i := range n.tables {
			n.tables[i].VerifyZero()
		}
	}
}

// drain consumes the incoming registers: the node's own deferred credit
// returns, the NI-to-router register and the registers of every mesh link
// in the arrival set in (bit d for input d; see netsim.Slot). Look-ahead
// flits are drained before data so a quantum always finds its input
// reservation entry.
func (n *Node) drain(now uint64, in uint8) {
	if n.pendSinkRet != (rcredMsg{}) {
		n.returnCredits(topo.Local, n.pendSinkRet)
		n.pendSinkRet = rcredMsg{}
	}
	if n.pendRcred[topo.Local] != (rcredMsg{}) {
		n.returnCredits(topo.NumDirs, n.pendRcred[topo.Local])
		n.pendRcred[topo.Local] = rcredMsg{}
	}
	for d := 0; d < 4; d++ {
		if in&(1<<d) != 0 && n.laIn[d] != nil {
			if fl, ok := n.laIn[d].Take(now); ok {
				n.la.accept(fl, topo.Dir(d), now)
			}
		}
	}
	if msg, ok := n.niData.Take(now); ok {
		n.receiveData(topo.Local, msg, now)
	}
	for d := 0; d < 4; d++ {
		if in&(1<<d) == 0 {
			continue
		}
		if n.dataIn[d] != nil {
			if msg, ok := n.dataIn[d].Take(now); ok {
				n.receiveData(topo.Dir(d), msg, now)
			}
		}
		if n.vcredIn[d] != nil {
			if n.fault != nil {
				// Credits withheld by a passed stall window replay first:
				// they are older than anything arriving this cycle, and a
				// stale tag applies exactly (whole-window increment).
				for _, tag := range n.fault.ReleaseCredits(d, now) {
					n.outTables[d].ReturnCredit(tag)
				}
			}
			if msg, ok := n.vcredIn[d].Take(now); ok {
				if n.fault != nil && n.fault.StallCredits(d, now) {
					n.fault.DeferCredits(d, msg.Tags)
					n.stats.FaultsInjected++
				} else {
					for _, tag := range msg.Tags {
						n.outTables[d].ReturnCredit(tag)
					}
				}
			}
		}
		if n.rcredIn[d] != nil {
			if msg, ok := n.rcredIn[d].Take(now); ok {
				n.returnCredits(topo.Dir(d), *msg)
			}
		}
		if n.laCredIn[d] != nil {
			if msg, ok := n.laCredIn[d].Take(now); ok {
				for i := 0; i < msg.N; i++ {
					n.la.credits[d].Return()
				}
			}
		}
	}
}

// returnCredits returns real credits to output o's downstream buffer pair.
func (n *Node) returnCredits(o topo.Dir, msg rcredMsg) {
	for i := 0; i < msg.NonSpec; i++ {
		n.credNonSpec[o].Return()
	}
	for i := 0; i < msg.Spec; i++ {
		n.credSpec[o].Return()
	}
}

// receiveData registers a quantum's physical arrival at input port d. The
// wire message carries the upstream booking slot, so the reservation entry
// (written by the look-ahead flit at arrival slot Depart+1) resolves with
// one slab index.
func (n *Node) receiveData(d topo.Dir, msg *dataMsg, now uint64) {
	ip := &n.inputs[d]
	e := ip.lookup(msg.Depart+1, msg.Q.ID)
	if e == nil {
		panic(fmt.Sprintf("loft: node %d input %s: quantum %+v arrived without a look-ahead entry", n.id, d, msg.Q.ID))
	}
	if e.arrived {
		panic(fmt.Sprintf("loft: node %d input %s: quantum %+v arrived twice", n.id, d, msg.Q.ID))
	}
	e.arrived = true
	e.inSpec = msg.Spec
	// Adopt the wire quantum: the look-ahead flit carries only the fields
	// of Fig. 3, while the data flits carry the full packet identity.
	e.q = msg.Q
	if e.booked {
		ip.avail = append(ip.avail, e)
		n.candidates++
		if e.departSlot < n.slotOf(now) {
			n.stats.LateArrivals++
		}
	}
	if msg.Spec {
		ip.specUsed++
		if ip.specUsed > n.cfg.SpecQuanta() {
			panic(fmt.Sprintf("loft: node %d input %s: speculative buffer overflow", n.id, d))
		}
	} else {
		ip.nonspecUsed++
		if ip.nonspecUsed > n.cfg.BufferQuanta() {
			panic(fmt.Sprintf("loft: node %d input %s: central buffer overflow", n.id, d))
		}
	}
}

// maybeReset performs the local status reset of §4.3.2 on every eligible
// output link: scheduler dirty, no booked slot, no virtual credit in flight
// and the downstream non-speculative buffer empty (observed via returned
// real credits).
func (n *Node) maybeReset() {
	for d, t := range n.outTables {
		if t != nil && n.resetDue(topo.Dir(d), t) {
			t.Reset()
		}
	}
}

// resetDue reports whether output d's table t meets the reset trigger.
func (n *Node) resetDue(d topo.Dir, t *lsf.Table) bool {
	return t.Dirty() && t.AllIdle() && t.Outstanding() == 0 && n.credNonSpec[d].AtCap()
}

// candidate returns input port d's switching candidate: the arrived, booked
// entry with the earliest scheduled departure (the first non-empty entry of
// the input reservation table's buffer-out row, §4.3.1).
func (ip *inputPort) candidate() *inEntry {
	var best *inEntry
	for _, e := range ip.avail {
		if best == nil || e.departSlot < best.departSlot {
			best = e
		}
	}
	return best
}

// dropAvail removes a forwarded entry from the candidate list.
func (ip *inputPort) dropAvail(e *inEntry) {
	for i, x := range ip.avail {
		if x == e {
			ip.avail[i] = ip.avail[len(ip.avail)-1]
			ip.avail = ip.avail[:len(ip.avail)-1]
			return
		}
	}
	panic("loft: forwarded entry missing from candidate list")
}

// forwardData performs one slot's switch arbitration and link traversal for
// the data network (§4.3.1): each input port nominates one candidate; per
// output port an emergent candidate (booked to depart this slot or overdue)
// always wins; otherwise, with speculative switching enabled, a round-robin
// arbiter picks among candidates with downstream buffer space, forwarding
// them ahead of schedule. An output no candidate targets has nothing to
// arbitrate and is skipped.
func (n *Node) forwardData(slot, now uint64) {
	var cands [topo.NumDirs]*inEntry
	var targets uint8 // bit o: some candidate leaves through output o
	for d := topo.North; d < topo.NumDirs; d++ {
		if cands[d] = n.inputs[d].candidate(); cands[d] != nil {
			targets |= 1 << cands[d].outDir
		}
	}
	for o := topo.North; targets != 0; o++ {
		if targets&(1<<o) == 0 {
			continue
		}
		targets &^= 1 << o
		// Emergent pass: the earliest overdue-or-due candidate for o.
		var winner *inEntry
		var winnerIn topo.Dir
		for d := topo.North; d < topo.NumDirs; d++ {
			e := cands[d]
			if e == nil || e.outDir != o || e.departSlot > slot {
				continue
			}
			if winner == nil || e.departSlot < winner.departSlot {
				winner, winnerIn = e, d
			}
		}
		emergent := winner != nil
		spec := false // emergent quanta go to the central buffer
		if !emergent && n.specSwitch {
			// Speculative pass: round-robin among remaining candidates.
			rr := &n.outRR[o]
			for i := 0; i < int(topo.NumDirs); i++ {
				d := rr.dir(i)
				e := cands[d]
				if e == nil || e.outDir != o {
					continue
				}
				if n.obs.Wants(probe.KindSpecAttempt) {
					n.obs.EmitSeq(now, probe.KindSpecAttempt, int32(n.id), int32(o), int32(e.q.ID.Flow), e.q.ID.Seq, e.q.ID.Seq)
				}
				if s := n.classify(o, e.q.ID, e.departSlot, slot); n.canForward(o, s) {
					winner, winnerIn, spec = e, d, s
					rr.granted(d)
					break
				}
				if n.obs.Wants(probe.KindSpecAbort) {
					n.obs.EmitSeq(now, probe.KindSpecAbort, int32(n.id), int32(o), int32(e.q.ID.Flow), e.q.ID.Seq, e.q.ID.Seq)
				}
			}
		}
		if winner == nil {
			continue
		}
		if emergent && !n.canForward(o, spec) {
			n.stats.EmergentDenied++
			continue
		}
		cands[winnerIn] = nil // one forward per input per slot
		if n.faultDeny(o, &winner.q, &winner.faultDenied, now) {
			continue
		}
		n.forward(o, winnerIn, winner, spec, slot, now)
	}
}

// The four steps below are the §4.3.1 forward of every output of a node,
// the NI's injection link (output topo.NumDirs) included: classify picks
// the downstream buffer, canForward checks its real credit, faultDeny lets
// an armed fault eat the transmission, and depart commits the crossing.

// classify reports whether quantum id, booked to depart output o at
// departSlot, would be forwarded during slot into the downstream
// speculative buffer (out of order) or the central buffer (in order:
// emergent, overdue, or first-scheduled in the output table).
func (n *Node) classify(o topo.Dir, id flit.QuantumID, departSlot, slot uint64) (spec bool) {
	if departSlot <= slot {
		return false
	}
	owner, _, ok := n.outTables[o].FirstScheduled()
	return !ok || owner.Flow != id.Flow || owner.Quantum != id.Seq
}

// canForward reports whether output o's downstream speculative (spec) or
// central buffer has a real credit left.
func (n *Node) canForward(o topo.Dir, spec bool) bool {
	if spec {
		return n.credSpec[o].Available() > 0
	}
	return n.credNonSpec[o].Available() > 0
}

// faultDeny reports whether an armed fault eats quantum q's transmission
// across output o, and accounts the lost flits. Nothing else changes: the
// quantum keeps its buffer slot and its booking, so once its departure slot
// passes it is overdue and the emergent path retries it — the same path a
// full downstream buffer exercises. *denied marks the quantum until depart
// counts the retry.
func (n *Node) faultDeny(o topo.Dir, q *Quantum, denied *bool, now uint64) bool {
	if n.fault == nil || !n.fault.DenyForward(int(o), now) {
		return false
	}
	*denied = true
	n.stats.FaultsInjected++
	n.stats.FlitsLost += uint64(q.Flits)
	if n.obs.Wants(probe.KindFaultLoss) {
		n.obs.EmitSeq(now, probe.KindFaultLoss, int32(n.id), int32(o), int32(q.ID.Flow), q.ID.Seq, uint64(q.Flits))
	}
	return true
}

// depart commits quantum q's crossing of output o into the downstream
// buffer classify chose: it counts the retry of a fault-denied quantum,
// clears the booked slot unless it already expired (the overdue case) and
// consumes the buffer's real credit.
func (n *Node) depart(o topo.Dir, q *Quantum, departSlot uint64, spec bool, denied *bool, now uint64) {
	if *denied {
		*denied = false
		n.stats.Retries++
		if n.obs.Wants(probe.KindFaultRetry) {
			n.obs.EmitSeq(now, probe.KindFaultRetry, int32(n.id), int32(o), int32(q.ID.Flow), q.ID.Seq, departSlot*uint64(n.cfg.QuantumFlits))
		}
	}
	t := n.outTables[o]
	if departSlot >= t.NowSlot() {
		if owner, busy := t.BusyAt(departSlot); busy && owner.Flow == q.ID.Flow && owner.Quantum == q.ID.Seq {
			t.ClearBusy(departSlot)
		}
	}
	if spec {
		n.credSpec[o].Consume()
	} else {
		n.credNonSpec[o].Consume()
	}
}

// forward moves the winning quantum from input in across output o: it
// departs, vacates the input buffer and queues the real credit for it, and
// either delivers the quantum to the sink (Local) or puts it on the link.
func (n *Node) forward(o, in topo.Dir, e *inEntry, spec bool, slot, now uint64) {
	n.depart(o, &e.q, e.departSlot, spec, &e.faultDenied, now)
	if e.departSlot <= slot {
		n.stats.SchedForwards++
	} else {
		n.stats.SpecForwards++
		if n.obs.Wants(probe.KindSpecHit) {
			n.obs.EmitSeq(now, probe.KindSpecHit, int32(n.id), int32(o), int32(e.q.ID.Flow), e.q.ID.Seq, e.departSlot*uint64(n.cfg.QuantumFlits))
		}
	}
	if n.obs.Wants(probe.KindDataForward) {
		var aux uint64
		if spec {
			aux = 1
		}
		n.obs.EmitAux(now, probe.KindDataForward, int32(n.id), int32(o), int32(e.q.ID.Flow), e.q.ID.Seq, e.departSlot*uint64(n.cfg.QuantumFlits), aux)
	}
	n.linkBusy[o]++
	ip := &n.inputs[in]
	ip.dropAvail(e)
	n.candidates--
	if e.inSpec {
		ip.specUsed--
		n.pendRcred[in].Spec++
	} else {
		ip.nonspecUsed--
		n.pendRcred[in].NonSpec++
	}
	// The entry retires here; copy what outlives it before recycling.
	q, departSlot := e.q, e.departSlot
	n.remove(in, e)
	if o == topo.Local {
		n.sink.receive(q, spec, slot, departSlot, now)
		return
	}
	n.dataOut[o].Write(now, dataMsg{Q: q, Spec: spec, Depart: departSlot})
	n.slot.Sent(o, now)
}

// flush writes the per-cycle accumulators to their registers.
func (n *Node) flush(now uint64) {
	for d := 0; d < 4; d++ {
		if len(n.pendVcred[d]) > 0 {
			// Send the filled buffer as-is and flip to the other one: the
			// receiver drains it next cycle, one full cycle before this
			// side can touch it again, so no copy is needed.
			sel := n.vcredSel[d]
			n.vcredBuf[d][sel] = n.pendVcred[d]
			n.vcredOut[d].Write(now, vcredMsg{Tags: n.pendVcred[d]})
			n.slot.Sent(topo.Dir(d), now)
			sel ^= 1
			n.vcredSel[d] = sel
			n.pendVcred[d] = n.vcredBuf[d][sel][:0]
		}
		if n.pendRcred[d] != (rcredMsg{}) {
			n.rcredOut[d].Write(now, n.pendRcred[d])
			n.slot.Sent(topo.Dir(d), now)
			n.pendRcred[d] = rcredMsg{}
		}
		if n.pendLaCred[d] > 0 {
			n.laCredOut[d].Write(now, laCredMsg{N: n.pendLaCred[d]})
			n.slot.Sent(topo.Dir(d), now)
			n.pendLaCred[d] = 0
		}
	}
}

// Stats returns the node's counters.
func (n *Node) Stats() NodeStats { return n.stats }

// InjectTableFault corrupts output d's reservation table (test hook; see
// lsf.Fault): a mesh output, the ejection link (topo.Local) or the
// injection link (topo.NumDirs). No-op on a missing table (mesh edge).
func (n *Node) InjectTableFault(d topo.Dir, f lsf.Fault) {
	if t := n.outTables[d]; t != nil {
		t.InjectFault(f)
	}
}

// Table returns output d's reservation table: a mesh output, the ejection
// link (topo.Local) or the injection link (topo.NumDirs); nil for a missing
// table (mesh edge). Tests and diagnostics read it between runs.
func (n *Node) Table(d topo.Dir) *lsf.Table { return n.outTables[d] }

// Backlog returns the number of quanta waiting in the NI (source backlog).
func (n *Node) Backlog() int { return n.ni.queued }
