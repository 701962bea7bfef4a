// Package gsf reimplements Globally-Synchronized Frames (Lee et al.,
// ISCA'08), the baseline the paper compares LOFT against, with the Table 1
// parameters: a 6-VC wormhole network where every flit carries a frame tag,
// routers arbitrate oldest-frame-first, sources meter injection against
// per-flow per-frame budgets inside a WF=6 window behind 2000-flit source
// queues, and a global barrier network recycles the head frame 16 cycles
// after the network holds no head-frame flits.
//
// Two properties the LOFT paper calls out are modeled faithfully because
// its evaluation depends on them (§2.2): frame recycling is globally
// synchronized (one slow hotspot stalls every flow's window), and a virtual
// channel may hold flits of only one packet at a time, which lengthens
// credit turn-around and caps link utilization.
package gsf

import (
	"fmt"

	"loft/internal/buffers"
	"loft/internal/config"
	"loft/internal/flit"
	"loft/internal/label"
	"loft/internal/netsim"
	"loft/internal/perfmon"
	"loft/internal/probe"
	"loft/internal/route"
	"loft/internal/sim"
	"loft/internal/topo"
	"loft/internal/traffic"
)

// linkMsg is one flit on a link, demultiplexed by downstream VC index.
type linkMsg struct {
	F  flit.Flit
	VC int
}

// creditMsg returns one credit for a VC; Tail marks that the VC drained a
// complete packet and may be reallocated (one-packet-per-VC rule).
type creditMsg struct {
	VC   int
	Tail bool
}

// vcEntry is a flit with its pipeline readiness cycle.
type vcEntry struct {
	f       flit.Flit
	readyAt uint64
}

// inputVC is one virtual channel of an input port. Its FIFO is embedded by
// value, its ring cut from the network's one ring array.
type inputVC struct {
	fifo   buffers.FIFO[vcEntry]
	dir    topo.Dir // input port
	idx    int      // index within the port (the upstream router's VC number)
	outDir topo.Dir
	routed bool
	downVC int // allocated VC at the next router; -1 when unallocated
	// pkt reassembles the packet this VC ejects. A VC carries one packet at
	// a time, so its flits eject in order from one VC.
	pkt pktProgress
}

// downVCState is the upstream-side bookkeeping of one downstream VC.
type downVCState struct {
	allocated bool
	credits   int
}

// outPort is one output port with its downstream VC state.
type outPort struct {
	down []downVCState
}

func (o *outPort) freeVC() int {
	for i := range o.down {
		if !o.down[i].allocated {
			return i
		}
	}
	return -1
}

// flowState meters one flow's injection (per-frame budget within the
// window; GSF forbids injecting into the head frame, so IF >= H+1). The
// network keeps one per flow, indexed by flow id; only the flow's source
// node reads or writes it.
type flowState struct {
	id  flit.FlowID
	src topo.NodeID
	// metered marks a flow whose budget New installed.
	metered bool
	r       int // budget per frame in flits
	ifr     int // current absolute injection frame
	c       int // remaining budget in ifr
	// throttled marks a source stalled on an exhausted window, so the
	// probe emits one event per stall instead of one per stalled cycle.
	throttled bool
}

// node is one GSF mesh node: router, source queue, sink. The network's
// nodes, and every slice and pointer below, are cut from slabs New
// allocates once for all nodes.
type node struct {
	id  topo.NodeID
	net *Network
	// vcs holds every input VC, port by port in N, E, S, W, Local order
	// (Local = injection port); port slices it.
	vcs []inputVC
	// cand lists, per output, the VCs whose ready head competes for it this
	// cycle, in vcs order (gather). Each list is carved from one backing
	// array with room for every VC, so appending never reallocates.
	cand [topo.NumDirs][]*inputVC
	outs [topo.NumDirs]*outPort // Local = ejection (modeled creditless)

	srcQueue srcQueue
	injVC    int // local input VC currently carrying the injected packet
	// held counts the flits in every input VC.
	held int

	flitOut [4]*sim.Reg[linkMsg]
	flitIn  [4]*sim.Reg[linkMsg]
	credOut [4]*sim.Reg[creditMsg]
	credIn  [4]*sim.Reg[creditMsg]
	// pendCred holds at most one credit return per direction per cycle;
	// pendCredSet marks occupancy (value storage — no per-flit allocation).
	pendCred    [4]creditMsg
	pendCredSet [4]bool

	// linkBusy counts flits forwarded per mesh output (link utilization).
	linkBusy [4]uint64

	// inj, obs and perf are the node's harness slot: its traffic injector,
	// the record stream it reports simulated occurrences into (replayed at
	// the cycle barrier) and its stage timer (nil when profiling is off).
	inj  *traffic.Injector
	obs  *probe.Stage
	perf *perfmon.Timer
	// slot is the node's harness slot, whose link activity stamps tell drain
	// which neighbours wrote toward this node.
	slot *netsim.Slot
	// quietCycles counts the cycles the node spent on the quiet path (not
	// behaviour: no digest or result reads it).
	quietCycles uint64
	// Effects on GSF's own network-global frame census buffer here during
	// the compute phase; Network.commitFrames applies them at the cycle
	// barrier, under both engines.
	frameDeltas []frameDelta
	// throttleCycles counts the cycles a source of this node stalled on an
	// exhausted window (events fire only on the stall edge); the probe's
	// gsf.throttle.cycles gauge sums it over the nodes.
	throttleCycles uint64

	drops uint64
}

// frameDelta is one deferred frame-census update.
type frameDelta struct {
	frame, delta int
}

type pktProgress struct {
	flits    int
	injected uint64
}

// init sets n up as node id of net. Its storage comes from the network's
// slabs: vcs holds every input VC, rings their FIFO rings (VCDepth entries
// each), cand the per-output candidate lists (room for every VC in each)
// and pkts the source queue's packet ring. wire adds the output ports and
// link registers.
func (n *node) init(id topo.NodeID, cfg config.GSF, net *Network, slot *netsim.Slot, vcs []inputVC, rings []vcEntry, cand []*inputVC, pkts []flit.Packet) {
	*n = node{
		id:    id,
		net:   net,
		vcs:   vcs,
		injVC: -1,
		inj:   slot.Injector,
		obs:   &slot.Stage,
		perf:  slot.Perf,
		slot:  slot,
	}
	n.srcQueue.init(label.New(srcqName, int(id), 0), cfg.SourceQueue, pkts)
	for i := range vcs {
		d, v := topo.Dir(i/cfg.VirtualChannels), i%cfg.VirtualChannels
		vcs[i] = inputVC{dir: d, idx: v, downVC: -1}
		vcs[i].fifo.Init(label.New(vcName, int(id), int(d)<<16|v), cut(rings, i, cfg.VCDepth))
	}
	for d := range n.cand {
		n.cand[d] = cut(cand, d, len(vcs))[:0]
	}
}

// Tick advances this node one cycle (sim.Ticker): it drains the node's
// traffic injector into the source queue, then runs the router pipeline.
// A quiet node — no flit in its VCs or source queue, none arriving — has
// no pipeline work: it polls the injector and runs the pipeline only if
// that queued a packet.
func (n *node) Tick(now uint64) {
	in := n.slot.Arrivals(now)
	n.perf.Begin(now)
	pkts := n.inj.Next(now)
	if in == 0 && n.held == 0 && n.srcQueue.Len() == 0 {
		n.quietCycles++
		if len(pkts) == 0 {
			n.perf.Lap(perfmon.StageBooking)
			return
		}
	}
	for _, pkt := range pkts {
		n.enqueue(pkt)
	}
	n.perf.Lap(perfmon.StageBooking)
	n.tick(now, in)
}

// addFrame adjusts the global frame census: the update is staged and
// replayed at the cycle barrier (frameCount is commit-only state).
func (n *node) addFrame(frame, delta int) {
	n.frameDeltas = append(n.frameDeltas, frameDelta{frame, delta})
}

// tick advances one cycle: drain the links in the arrival set in, eject,
// switch, inject.
func (n *node) tick(now uint64, in uint8) {
	n.drain(now, in)
	n.gather(now)
	n.perf.Lap(perfmon.StageDrain)
	n.allocateVCs()
	n.perf.Lap(perfmon.StageVCAlloc)
	n.switchFlits(now)
	n.perf.Lap(perfmon.StageSwitch)
	n.inject(now)
	n.perf.Lap(perfmon.StageBooking)
	n.flush(now)
	n.perf.Lap(perfmon.StageFlush)
}

// flush sends this cycle's credit returns upstream.
func (n *node) flush(now uint64) {
	for d := 0; d < 4; d++ {
		if n.pendCredSet[d] {
			n.credOut[d].Write(now, n.pendCred[d])
			n.slot.Sent(topo.Dir(d), now)
			n.pendCredSet[d] = false
		}
	}
}

// drain takes this cycle's flit and credit off every input link in the
// arrival set in (bit d for input d; see netsim.Slot).
func (n *node) drain(now uint64, in uint8) {
	for d := 0; d < 4; d++ {
		if in&(1<<d) == 0 {
			continue
		}
		if n.flitIn[d] != nil {
			if msg, ok := n.flitIn[d].Take(now); ok {
				vc := &n.port(topo.Dir(d))[msg.VC]
				if !vc.routed {
					vc.outDir = topo.Local
					if msg.F.Dst != n.id {
						vc.outDir = route.XY(n.net.mesh, n.id, msg.F.Dst)
					}
					vc.routed = true
				}
				vc.fifo.Push(vcEntry{f: msg.F, readyAt: now + uint64(n.net.cfg.PipeStages) - 1})
				n.held++
			}
		}
		if n.credIn[d] != nil {
			if msg, ok := n.credIn[d].Take(now); ok {
				out := n.outs[d]
				out.down[msg.VC].credits++
				if msg.Tail {
					out.down[msg.VC].allocated = false
				}
			}
		}
	}
}

// port returns input port d's VCs.
func (n *node) port(d topo.Dir) []inputVC {
	v := n.net.cfg.VirtualChannels
	return n.vcs[int(d)*v : int(d+1)*v]
}

// gather lists every routed VC whose head flit is ready under the output it
// is routed to. Arbitration touches only these lists, so it sees each VC
// once per cycle instead of once per output; vcs order keeps the tie-break.
func (n *node) gather(now uint64) {
	for o := range n.cand {
		n.cand[o] = n.cand[o][:0]
	}
	for i := range n.vcs {
		vc := &n.vcs[i]
		if head := vc.fifo.Front(); head != nil && vc.routed && head.readyAt <= now {
			n.cand[vc.outDir] = append(n.cand[vc.outDir], vc)
		}
	}
}

// allocateVCs performs VC allocation: per output port, the oldest-frame
// head flit awaiting a downstream VC gets a free one (one per cycle per
// output; a VC is granted only when empty, per the one-packet rule).
// Outputs are served N, E, S, W; among equal frames the first candidate in
// input order N, E, S, W, Local, then VC index, wins (strict <), and that
// order is behaviour.
func (n *node) allocateVCs() {
	for o := topo.North; o < topo.Local; o++ {
		out := n.outs[o]
		if out == nil {
			continue
		}
		free := out.freeVC()
		if free < 0 {
			continue
		}
		var best *inputVC
		for _, vc := range n.cand[o] {
			head := vc.fifo.Front()
			if vc.downVC >= 0 || !head.f.Head {
				continue
			}
			if best == nil || head.f.Frame < mustPeek(best).f.Frame {
				best = vc
			}
		}
		if best != nil {
			best.downVC = free
			out.down[free].allocated = true
		}
	}
}

func mustPeek(vc *inputVC) *vcEntry {
	e := vc.fifo.Front()
	if e == nil {
		panic("gsf: peek on empty VC")
	}
	return e
}

// switchFlits performs switch allocation and traversal: per output port the
// oldest-frame ready flit with credits wins; each input port sends at most
// one flit per cycle (single crossbar input). Outputs are served N, E, S, W,
// Local; among equal frames the first candidate in input order N, E, S, W,
// Local, then VC index, wins (strict <), and that order is behaviour. Only
// the winner changes state, and it is on no later output's list.
func (n *node) switchFlits(now uint64) {
	var usedInput [topo.NumDirs]bool
	for o := topo.North; o < topo.NumDirs; o++ {
		if o != topo.Local && n.outs[o] == nil {
			continue
		}
		var best *inputVC
		for _, vc := range n.cand[o] {
			if usedInput[vc.dir] {
				continue
			}
			if o != topo.Local {
				if vc.downVC < 0 || n.outs[o].down[vc.downVC].credits == 0 {
					continue
				}
			}
			if best == nil || vc.fifo.Front().f.Frame < mustPeek(best).f.Frame {
				best = vc
			}
		}
		if best == nil {
			continue
		}
		usedInput[best.dir] = true
		// The flit is read in place; the Pop that ends the traversal
		// clears it.
		f := &best.fifo.Front().f
		n.held--
		if o == topo.Local {
			n.eject(&best.pkt, f, now)
			n.addFrame(f.Frame, -1) // the flit left the network
		} else {
			n.outs[o].down[best.downVC].credits--
			n.flitOut[o].Write(now, linkMsg{F: *f, VC: best.downVC})
			n.slot.Sent(o, now)
			n.linkBusy[o]++
		}
		if best.dir != topo.Local {
			// Return the credit; tail also frees the VC upstream.
			n.pendCred[best.dir] = creditMsg{VC: best.idx, Tail: f.Tail}
			n.pendCredSet[best.dir] = true
		}
		if f.Tail {
			best.routed = false
			best.downVC = -1
		}
		best.fifo.Pop()
	}
}

// eject delivers a flit to the local sink. The collectors and the auditor
// are network-global and order-sensitive, so what they consume is staged;
// prog, the ejecting VC's reassembly state, is node-local.
func (n *node) eject(prog *pktProgress, f *flit.Flit, now uint64) {
	if prog.flits == 0 || f.Injected < prog.injected {
		prog.injected = f.Injected
	}
	prog.flits++
	if n.obs.Wants(probe.KindEject) {
		n.obs.EmitAux(now, probe.KindEject, int32(n.id), int32(f.Src), int32(f.Flow), 0, 0, 1)
	}
	if !f.Tail {
		return
	}
	prog.flits = 0
	if n.obs.Wants(probe.KindPacketDone) {
		n.obs.EmitAux(now+1, probe.KindPacketDone, int32(n.id), -1, int32(f.Flow), f.PktSeq, prog.injected, f.Created)
	}
}

// enqueue adds a freshly generated packet to the source queue, dropping it
// when the 2000-flit queue cannot hold it.
func (n *node) enqueue(p flit.Packet) {
	if n.srcQueue.Free() < p.Flits {
		n.drops++
		return
	}
	n.srcQueue.Push(p)
}

// flow returns the metering state of flow id when it is a flow New
// installed at this node, and nil otherwise.
func (n *node) flow(id flit.FlowID) *flowState {
	if id < 0 || int(id) >= len(n.net.flows) {
		return nil
	}
	if fs := &n.net.flows[id]; fs.metered && fs.src == n.id {
		return fs
	}
	return nil
}

// inject meters one flit per cycle from the source queue into the router's
// local input port, assigning frame tags against the flow's budget. GSF
// does not allow injection into the head frame, so frames H+1..H+W-1 are
// usable; an exhausted window stalls the source (the queue backs up). In
// best-effort mode the budget and frame machinery are skipped: flits are
// injected whenever a VC is free, giving a plain wormhole network.
func (n *node) inject(now uint64) {
	pkt, first := n.srcQueue.Head()
	if pkt == nil {
		return
	}
	cfg := n.net.cfg
	fs := n.flow(pkt.Flow)
	if fs == nil && !cfg.BestEffort {
		panic(fmt.Sprintf("gsf: node %d: flow %d has no reservation", n.id, pkt.Flow))
	}
	local := n.port(topo.Local)
	if first && n.injVC < 0 {
		// A head flit needs an empty, unallocated local-input VC
		// (one-packet-per-VC rule).
		for v := range local {
			if local[v].fifo.Empty() && !local[v].routed {
				n.injVC = v
				break
			}
		}
	}
	if n.injVC < 0 {
		return // no VC available: stall
	}
	vc := &local[n.injVC]
	if vc.fifo.Full() {
		return
	}
	frame := 0
	if !cfg.BestEffort {
		// Budget check: each flit consumes one unit of the frame budget.
		h := n.net.head
		if fs.ifr <= h {
			fs.ifr = h + 1
			fs.c = fs.r
		}
		if fs.c == 0 {
			if fs.ifr >= h+cfg.FrameWindow-1 {
				// Window exhausted: source throttled. Emit one event per
				// stall edge and count every stalled cycle.
				n.throttleCycles++
				if !fs.throttled {
					fs.throttled = true
					if n.obs.Wants(probe.KindGSFThrottle) {
						n.obs.Emit(now, probe.KindGSFThrottle, int32(n.id), -1, int32(fs.id), uint64(h))
					}
				}
				return
			}
			fs.ifr++
			fs.c = fs.r
		}
		fs.throttled = false
		frame = fs.ifr
		fs.c--
	}
	f, _ := n.srcQueue.Pop()
	f.Frame = frame
	f.Injected = now
	if f.Head && n.obs.Wants(probe.KindGSFInject) {
		n.obs.EmitSeq(now, probe.KindGSFInject, int32(n.id), -1, int32(f.Flow), f.PktSeq, 0)
	}
	if !vc.routed {
		vc.outDir = topo.Local
		if f.Dst != n.id {
			vc.outDir = route.XY(n.net.mesh, n.id, f.Dst)
		}
		vc.routed = true
	}
	vc.fifo.Push(vcEntry{f: f, readyAt: now + uint64(cfg.PipeStages) - 1})
	n.held++
	n.addFrame(f.Frame, 1)
	if f.Tail {
		n.injVC = -1
	}
}
