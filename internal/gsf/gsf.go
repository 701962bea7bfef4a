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
	"math/bits"

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
	// occ is the set of non-empty VCs, bit i%64 of word i/64 for vcs[i]: a
	// push sets the bit and the pop that empties the VC clears it. wait[o]
	// is the set of routed VCs bound for mesh output o that hold no
	// downstream VC yet: routing a head flit there sets the bit and the
	// grant clears it. gather visits the occupied VCs alone, less those
	// waiting at an output with no free downstream VC.
	occ  []uint64
	wait [topo.Local][]uint64
	// arb holds this cycle's arbitration candidates (gather).
	arb  arbiter
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
	// frames is the node's share of the frame census: frames[f%FrameWindow]
	// counts the flits of frame f it injected less those it ejected. Only
	// the node's own Tick writes it; Network.census sums the shares in the
	// serial commit.
	frames []int
	// throttleCycles counts the cycles a source of this node stalled on an
	// exhausted window (events fire only on the stall edge); the probe's
	// gsf.throttle.cycles gauge sums it over the nodes.
	throttleCycles uint64

	drops uint64
}

type pktProgress struct {
	flits    int
	injected uint64
}

// init sets n up as node id of net. Its storage comes from the network's
// slabs: vcs holds every input VC, rings their FIFO rings (VCDepth entries
// each), sets the words of occ and of the four wait sets (one bit per VC
// each), pkts the source queue's packet ring and frames the node's census
// share. wire adds the output ports and link registers.
func (n *node) init(id topo.NodeID, cfg config.GSF, net *Network, slot *netsim.Slot, vcs []inputVC, rings []vcEntry, sets []uint64, pkts []flit.Packet, frames []int) {
	*n = node{
		id:     id,
		net:    net,
		vcs:    vcs,
		injVC:  -1,
		inj:    &slot.Injector,
		obs:    &slot.Stage,
		perf:   slot.Perf,
		slot:   slot,
		frames: frames,
	}
	n.srcQueue.init(label.New(srcqName, int(id), 0), cfg.SourceQueue, pkts)
	words := len(sets) / (1 + len(n.wait))
	n.occ = cut(sets, 0, words)
	for o := range n.wait {
		n.wait[o] = cut(sets, 1+o, words)
	}
	for i := range vcs {
		d, v := topo.Dir(i/cfg.VirtualChannels), i%cfg.VirtualChannels
		vcs[i] = inputVC{dir: d, idx: v, downVC: -1}
		vcs[i].fifo.Init(label.New(vcName, int(id), int(d)<<16|v), cut(rings, i, cfg.VCDepth))
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

// addFrame adds delta flits of frame to the node's census share.
func (n *node) addFrame(frame, delta int) {
	n.frames[frame%len(n.frames)] += delta
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
				n.push(d*n.net.cfg.VirtualChannels+msg.VC, &msg.F, now)
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

// push appends f, ready PipeStages-1 cycles from now, to vcs[i], filling
// the ring slot in place. A head flit routes the VC.
func (n *node) push(i int, f *flit.Flit, now uint64) {
	vc := &n.vcs[i]
	if !vc.routed {
		vc.outDir = topo.Local
		if f.Dst != n.id {
			vc.outDir = route.XY(n.net.mesh, n.id, f.Dst)
			mark(n.wait[vc.outDir], i)
		}
		vc.routed = true
	}
	e := vc.fifo.PushSlot()
	e.f, e.readyAt = *f, now+uint64(n.net.cfg.PipeStages)-1
	mark(n.occ, i)
	n.held++
}

// index returns vc's index in vcs.
func (n *node) index(vc *inputVC) int { return int(vc.dir)*n.net.cfg.VirtualChannels + vc.idx }

// mark adds VC i to set; unmark removes it.
func mark(set []uint64, i int)   { set[i>>6] |= 1 << (i & 63) }
func unmark(set []uint64, i int) { set[i>>6] &^= 1 << (i & 63) }

// pick is an arbitration winner so far: a VC and its head flit's frame.
type pick struct {
	vc    *inputVC
	frame int
}

// offer makes vc the pick when its head is of an older frame. Offered in
// vcs order, the first VC of the oldest frame wins (strict <).
func (p *pick) offer(vc *inputVC, frame int) {
	if p.vc == nil || frame < p.frame {
		p.vc, p.frame = vc, frame
	}
}

// arbiter holds one cycle's candidates, each the winner of its group among
// the VCs whose head flit is ready: per mesh output, the head flit that
// awaits a downstream VC (alloc); per output and input port, the flit that
// may cross the switch (cross), with ports[o] holding bit d when cross[o][d]
// has one. free is each mesh output's first free downstream VC, -1 when it
// has none (or no link).
type arbiter struct {
	free  [topo.Local]int
	alloc [topo.Local]pick
	cross [topo.NumDirs][topo.NumDirs]pick
	ports [topo.NumDirs]uint8
}

// gather fills the arbiter in one pass over the occupied VCs, walking their
// set bits upward: that is vcs order, the order of the tie-break. An
// occupied VC is routed, by the head flit of the one packet it holds. A VC
// waiting for a downstream VC at an output with none free can win nothing
// this cycle and is not visited. A flit may cross when it is bound for the
// local sink or holds a downstream VC with a credit left; only VC
// allocation changes either before the switch, and allocateVCs offers the
// VCs it grants.
func (n *node) gather(now uint64) {
	n.arb = arbiter{}
	for o := range n.arb.free {
		n.arb.free[o] = -1
		if out := n.outs[o]; out != nil {
			n.arb.free[o] = out.freeVC()
		}
	}
	for w, set := range n.occ {
		for o, free := range n.arb.free {
			if free < 0 {
				set &^= n.wait[o][w]
			}
		}
		for ; set != 0; set &= set - 1 {
			vc := &n.vcs[w<<6|bits.TrailingZeros64(set)]
			head := vc.fifo.Front()
			if head.readyAt > now {
				continue
			}
			switch o := vc.outDir; {
			case o == topo.Local || vc.downVC >= 0 && n.outs[o].down[vc.downVC].credits > 0:
				n.arb.cross[o][vc.dir].offer(vc, head.f.Frame)
				n.arb.ports[o] |= 1 << vc.dir
			case vc.downVC < 0 && head.f.Head:
				n.arb.alloc[o].offer(vc, head.f.Frame)
			}
		}
	}
}

// allocateVCs performs VC allocation: per output port, the oldest-frame
// head flit awaiting a downstream VC gets a free one (one per cycle per
// output; a VC is granted only when empty, per the one-packet rule).
// Outputs are served N, E, S, W; among equal frames the first candidate in
// input order N, E, S, W, Local, then VC index, wins (strict <), and that
// order is behaviour. The granted VC joins the switch candidates of its
// input port; it may be an earlier VC than the one it meets there.
func (n *node) allocateVCs() {
	for o := topo.North; o < topo.Local; o++ {
		best, free := n.arb.alloc[o], n.arb.free[o]
		if best.vc == nil || free < 0 {
			continue
		}
		out := n.outs[o]
		best.vc.downVC = free
		out.down[free].allocated = true
		unmark(n.wait[o], n.index(best.vc))
		if out.down[free].credits == 0 {
			continue
		}
		p := &n.arb.cross[o][best.vc.dir]
		if p.vc == nil || best.frame < p.frame || best.frame == p.frame && best.vc.idx < p.vc.idx {
			*p = best
			n.arb.ports[o] |= 1 << best.vc.dir
		}
	}
}

// switchFlits performs switch allocation and traversal: per output port the
// oldest-frame ready flit with credits wins; each input port sends at most
// one flit per cycle (single crossbar input). Outputs are served N, E, S, W,
// Local; among equal frames the first candidate in input order N, E, S, W,
// Local, then VC index, wins (strict <), and that order is behaviour. Only
// the winner changes state, and it is no later output's candidate. No VC
// is routed toward a missing link, so such an output has no candidate.
func (n *node) switchFlits(now uint64) {
	var used uint8 // input ports that sent this cycle
	for o := topo.North; o < topo.NumDirs; o++ {
		var win pick
		for ports := n.arb.ports[o] &^ used; ports != 0; ports &= ports - 1 {
			c := &n.arb.cross[o][bits.TrailingZeros8(ports)]
			win.offer(c.vc, c.frame)
		}
		best := win.vc
		if best == nil {
			continue
		}
		used |= 1 << best.dir
		// The flit is read in place and copied once, straight into the
		// link register; the Drop that ends the traversal clears it.
		f := &best.fifo.Front().f
		n.held--
		if o == topo.Local {
			n.eject(&best.pkt, f, now)
			n.addFrame(f.Frame, -1) // the flit left the network
		} else {
			n.outs[o].down[best.downVC].credits--
			m := n.flitOut[o].WriteSlot(now)
			m.F, m.VC = *f, best.downVC
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
		if best.fifo.Drop(); best.fifo.Empty() {
			unmark(n.occ, n.index(best))
		}
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
	n.push(int(topo.Local)*cfg.VirtualChannels+n.injVC, &f, now)
	n.addFrame(f.Frame, 1)
	if f.Tail {
		n.injVC = -1
	}
}
