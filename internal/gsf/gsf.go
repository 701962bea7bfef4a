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

// inputVC is one virtual channel of an input port.
type inputVC struct {
	fifo   *buffers.FIFO[vcEntry]
	outDir topo.Dir
	routed bool
	downVC int // allocated VC at the next router; -1 when unallocated
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
// window; GSF forbids injecting into the head frame, so IF >= H+1).
type flowState struct {
	id  flit.FlowID
	r   int // budget per frame in flits
	ifr int // current absolute injection frame
	c   int // remaining budget in ifr
	// throttled marks a source stalled on an exhausted window, so the
	// probe emits one event per stall instead of one per stalled cycle.
	throttled bool
}

// node is one GSF mesh node: router, source queue, sink.
type node struct {
	id   topo.NodeID
	net  *Network
	vcs  [topo.NumDirs][]*inputVC // Local = injection port
	outs [topo.NumDirs]*outPort   // Local = ejection (modeled creditless)

	srcQueue *buffers.FIFO[flit.Flit]
	flows    map[flit.FlowID]*flowState
	injVC    int // local input VC currently carrying the injected packet

	flitOut [4]*sim.Reg[linkMsg]
	flitIn  [4]*sim.Reg[linkMsg]
	credOut [4]*sim.Reg[creditMsg]
	credIn  [4]*sim.Reg[creditMsg]
	// pendCred holds at most one credit return per direction per cycle;
	// pendCredSet marks occupancy (value storage — no per-flit allocation).
	pendCred    [4]creditMsg
	pendCredSet [4]bool

	pktFlits map[pktKey]pktProgress

	// linkBusy counts flits forwarded per mesh output (link utilization).
	linkBusy [4]uint64

	// inj, obs and perf are the node's harness slot: its traffic injector,
	// the record stream it reports simulated occurrences into (replayed at
	// the cycle barrier) and its stage timer (nil when profiling is off).
	inj  *traffic.Injector
	obs  *probe.Stage
	perf *perfmon.Timer
	// Effects on GSF's own network-global state (frame census, throttle
	// counter) buffer here during the compute phase; Network.commitFrames
	// applies them at the cycle barrier, under both engines.
	frameDeltas    []frameDelta
	throttleStaged uint64

	drops uint64
}

// frameDelta is one deferred frame-census update.
type frameDelta struct {
	frame, delta int
}

type pktKey struct {
	flow flit.FlowID
	seq  uint64
}

type pktProgress struct {
	flits    int
	injected uint64
}

func newNode(id topo.NodeID, cfg config.GSF, net *Network, slot *netsim.Slot) *node {
	n := &node{
		id:       id,
		net:      net,
		srcQueue: buffers.NewFIFO[flit.Flit](fmt.Sprintf("gsf.n%d.src", id), cfg.SourceQueue),
		flows:    make(map[flit.FlowID]*flowState),
		injVC:    -1,
		pktFlits: make(map[pktKey]pktProgress),
		inj:      slot.Injector,
		obs:      &slot.Stage,
		perf:     slot.Perf,
	}
	for d := topo.North; d < topo.NumDirs; d++ {
		n.vcs[d] = make([]*inputVC, cfg.VirtualChannels)
		for v := range n.vcs[d] {
			n.vcs[d][v] = &inputVC{
				fifo:   buffers.NewFIFO[vcEntry](fmt.Sprintf("gsf.n%d.%s.vc%d", id, d, v), cfg.VCDepth),
				downVC: -1,
			}
		}
		if d == topo.Local {
			continue // ejection handled without credits (1 flit/cycle sink)
		}
		if _, ok := net.mesh.Neighbor(id, d); ok {
			out := &outPort{down: make([]downVCState, cfg.VirtualChannels)}
			for v := range out.down {
				out.down[v].credits = cfg.VCDepth
			}
			n.outs[d] = out
		}
	}
	return n
}

// Tick advances this node one cycle (sim.Ticker): it drains the node's
// traffic injector into the source queue, then runs the router pipeline.
//
//loft:hotpath
//loft:computephase
func (n *node) Tick(now uint64) {
	if n.perf != nil {
		n.perf.Begin(now)
	}
	for _, pkt := range n.inj.Next(now) {
		n.enqueue(pkt)
	}
	if n.perf != nil {
		n.perf.Lap(perfmon.StageBooking)
	}
	n.tick(now)
}

// addFrame adjusts the global frame census: the update is staged and
// replayed at the cycle barrier (frameCount is commit-only state).
func (n *node) addFrame(frame, delta int) {
	n.frameDeltas = append(n.frameDeltas, frameDelta{frame, delta})
}

// tick advances one cycle: drain links, eject, switch, inject.
func (n *node) tick(now uint64) {
	cfg := n.net.cfg
	for d := 0; d < 4; d++ {
		if n.flitIn[d] != nil {
			if msg, ok := n.flitIn[d].Take(); ok {
				vc := n.vcs[d][msg.VC]
				if !vc.routed {
					vc.outDir = topo.Local
					if msg.F.Dst != n.id {
						vc.outDir = route.XY(n.net.mesh, n.id, msg.F.Dst)
					}
					vc.routed = true
				}
				vc.fifo.Push(vcEntry{f: msg.F, readyAt: now + uint64(cfg.PipeStages) - 1})
			}
		}
		if n.credIn[d] != nil {
			if msg, ok := n.credIn[d].Take(); ok {
				out := n.outs[d]
				out.down[msg.VC].credits++
				if msg.Tail {
					out.down[msg.VC].allocated = false
				}
			}
		}
	}
	if n.perf != nil {
		n.perf.Lap(perfmon.StageDrain)
	}
	n.allocateVCs(now)
	if n.perf != nil {
		n.perf.Lap(perfmon.StageVCAlloc)
	}
	n.switchFlits(now)
	if n.perf != nil {
		n.perf.Lap(perfmon.StageSwitch)
	}
	n.inject(now)
	if n.perf != nil {
		n.perf.Lap(perfmon.StageBooking)
	}
	for d := 0; d < 4; d++ {
		if n.pendCredSet[d] {
			n.credOut[d].Write(n.pendCred[d])
			n.pendCredSet[d] = false
		}
	}
	if n.perf != nil {
		n.perf.Lap(perfmon.StageFlush)
	}
}

// allocateVCs performs VC allocation: per output port, the oldest-frame
// head flit awaiting a downstream VC gets a free one (one per cycle per
// output; a VC is granted only when empty, per the one-packet rule).
func (n *node) allocateVCs(now uint64) {
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
		for d := topo.North; d < topo.NumDirs; d++ {
			for _, vc := range n.vcs[d] {
				head, ok := vc.fifo.Peek()
				if !ok || !vc.routed || vc.outDir != o || vc.downVC >= 0 || !head.f.Head || head.readyAt > now {
					continue
				}
				if best == nil || head.f.Frame < mustPeek(best).f.Frame {
					best = vc
				}
			}
		}
		if best != nil {
			best.downVC = free
			out.down[free].allocated = true
		}
	}
}

func mustPeek(vc *inputVC) vcEntry {
	e, ok := vc.fifo.Peek()
	if !ok {
		panic("gsf: peek on empty VC")
	}
	return e
}

// switchFlits performs switch allocation and traversal: per output port the
// oldest-frame ready flit with credits wins; each input port sends at most
// one flit per cycle (single crossbar input).
func (n *node) switchFlits(now uint64) {
	var usedInput [topo.NumDirs]bool
	for o := topo.North; o < topo.NumDirs; o++ {
		if o != topo.Local && n.outs[o] == nil {
			continue
		}
		var best *inputVC
		var bestDir topo.Dir
		for d := topo.North; d < topo.NumDirs; d++ {
			if usedInput[d] {
				continue
			}
			for _, vc := range n.vcs[d] {
				head, ok := vc.fifo.Peek()
				if !ok || !vc.routed || vc.outDir != o || head.readyAt > now {
					continue
				}
				if o != topo.Local {
					if vc.downVC < 0 || n.outs[o].down[vc.downVC].credits == 0 {
						continue
					}
				}
				if best == nil || head.f.Frame < mustPeek(best).f.Frame {
					best, bestDir = vc, d
				}
			}
		}
		if best == nil {
			continue
		}
		usedInput[bestDir] = true
		e, _ := best.fifo.Pop()
		if o == topo.Local {
			n.eject(e.f, now)
			n.addFrame(e.f.Frame, -1) // the flit left the network
		} else {
			n.outs[o].down[best.downVC].credits--
			n.flitOut[o].Write(linkMsg{F: e.f, VC: best.downVC})
			n.linkBusy[o]++
		}
		if bestDir != topo.Local {
			// Return the credit; tail also frees the VC upstream.
			n.pendCred[bestDir] = creditMsg{VC: indexOf(n.vcs[bestDir], best), Tail: e.f.Tail}
			n.pendCredSet[bestDir] = true
		}
		if e.f.Tail {
			best.routed = false
			best.downVC = -1
		}
	}
}

func indexOf(vcs []*inputVC, vc *inputVC) int {
	for i := range vcs {
		if vcs[i] == vc {
			return i
		}
	}
	panic("gsf: VC not found")
}

// eject delivers a flit to the local sink. The collectors and the auditor
// are network-global and order-sensitive, so what they consume is staged;
// per-packet reassembly state is node-local.
func (n *node) eject(f flit.Flit, now uint64) {
	key := pktKey{flow: f.Flow, seq: f.PktSeq}
	prog := n.pktFlits[key]
	if prog.flits == 0 || f.Injected < prog.injected {
		prog.injected = f.Injected
	}
	prog.flits++
	if n.obs.Wants(probe.KindEject) {
		n.obs.EmitAux(now, probe.KindEject, int32(n.id), int32(f.Src), int32(f.Flow), 0, 0, 1)
	}
	if !f.Tail {
		n.pktFlits[key] = prog
		return
	}
	delete(n.pktFlits, key)
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
	for i := 0; i < p.Flits; i++ {
		n.srcQueue.Push(flit.Flit{
			Flow: p.Flow, Src: p.Src, Dst: p.Dst,
			PktSeq: p.Seq, Index: i,
			Head: i == 0, Tail: i == p.Flits-1,
			Created: p.Created,
		})
	}
}

// inject meters one flit per cycle from the source queue into the router's
// local input port, assigning frame tags against the flow's budget. GSF
// does not allow injection into the head frame, so frames H+1..H+W-1 are
// usable; an exhausted window stalls the source (the queue backs up). In
// best-effort mode the budget and frame machinery are skipped: flits are
// injected whenever a VC is free, giving a plain wormhole network.
func (n *node) inject(now uint64) {
	head, ok := n.srcQueue.Peek()
	if !ok {
		return
	}
	cfg := n.net.cfg
	fs := n.flows[head.Flow]
	if fs == nil && !cfg.BestEffort {
		panic(fmt.Sprintf("gsf: node %d: flow %d has no reservation", n.id, head.Flow))
	}
	if head.Head && n.injVC < 0 {
		// A head flit needs an empty, unallocated local-input VC
		// (one-packet-per-VC rule).
		for v, vc := range n.vcs[topo.Local] {
			if vc.fifo.Empty() && !vc.routed {
				n.injVC = v
				break
			}
		}
	}
	if n.injVC < 0 {
		return // no VC available: stall
	}
	vc := n.vcs[topo.Local][n.injVC]
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
				// stall edge and count every stalled cycle (staged: the
				// shared counter commits at the barrier).
				n.throttleStaged++
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
	n.addFrame(f.Frame, 1)
	if f.Tail {
		n.injVC = -1
	}
}
