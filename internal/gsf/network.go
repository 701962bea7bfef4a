package gsf

import (
	"fmt"

	"loft/internal/audit"
	"loft/internal/config"
	"loft/internal/det"
	"loft/internal/fault"
	"loft/internal/flit"
	"loft/internal/label"
	"loft/internal/netsim"
	"loft/internal/perfmon"
	"loft/internal/probe"
	"loft/internal/sim"
	"loft/internal/topo"
	"loft/internal/traffic"
)

// Network is a complete GSF mesh driving a traffic pattern. The engine, the
// statistics collectors and the observers are the embedded harness's; this
// type adds the GSF nodes, their wiring and the global frame barrier.
type Network struct {
	*netsim.Harness
	cfg   config.GSF
	mesh  topo.Mesh
	nodes []*node
	// flows holds every flow's metering state, indexed by flow id; each
	// entry belongs to its source node.
	flows []flowState

	// Barrier / global frame state. Commit-only: the compute phase may read
	// head (stable between barriers) but every write happens in the serial
	// commit phase — nodes stage census updates as frameDeltas instead. A
	// compute-phase write is a data race on the two-worker goldens under
	// -race.
	head       int // H: the head frame (absolute)
	frameCount map[int]int
	barrier    int // countdown; 0 = idle
}

// Options mirror netsim.Options field for field (documented there), plus
// the frame size the reservations were computed against.
type Options struct {
	Seed   uint64
	Warmup uint64
	// BaseFrameFlits is the frame size the pattern's reservations were
	// computed against (the LOFT frame, 256); GSF budgets are rescaled to
	// its own 2000-flit frames preserving each flow's bandwidth fraction.
	BaseFrameFlits int
	// Probe enables the observability layer when non-nil (frame rollover
	// and source-throttle events, link-utilization gauges).
	Probe   *probe.Probe
	Audit   *audit.Auditor
	Workers int
	Perf    *perfmon.Monitor
	// Fault arms a fault-injection plan when non-nil. GSF models no
	// link-level fault surfaces, so only adversary events are accepted —
	// New rejects plans with any other kind; see DESIGN.md §16.
	Fault *fault.Plan
}

// New builds a GSF network for the given pattern.
func New(cfg config.GSF, pattern *traffic.Pattern, opts Options) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mesh := cfg.Mesh()
	if opts.BaseFrameFlits <= 0 {
		return nil, fmt.Errorf("gsf: BaseFrameFlits must be positive")
	}
	if !opts.Fault.Adversarial() {
		return nil, fmt.Errorf("gsf: fault plan %q uses link-level faults; GSF supports adversary events only", opts.Fault)
	}
	opts.Audit.BeginGSF(cfg, mesh, pattern.Flows)
	h, err := netsim.New(mesh, pattern, netsim.Options{Seed: opts.Seed, Warmup: opts.Warmup, Probe: opts.Probe,
		Audit: opts.Audit, Workers: opts.Workers, Perf: opts.Perf, Fault: opts.Fault})
	if err != nil {
		return nil, err
	}
	net := &Network{Harness: h, cfg: cfg, mesh: mesh, frameCount: make(map[int]int)}
	// Every node's state comes from one slab per kind, cut node by node.
	nn, all := mesh.N(), int(topo.NumDirs)*cfg.VirtualChannels
	nodes := make([]node, nn)
	vcs := make([]inputVC, nn*all)
	rings := make([]vcEntry, nn*all*cfg.VCDepth)
	cand := make([]*inputVC, nn*int(topo.NumDirs)*all)
	queuePkts := ringPackets(cfg.SourceQueue, minPacketFlits(pattern))
	pkts := make([]flit.Packet, nn*queuePkts)
	net.nodes = make([]*node, nn)
	for i := range nodes {
		n := &nodes[i]
		n.init(topo.NodeID(i), cfg, net, h.Slot(i), cut(vcs, i, all), cut(rings, i, all*cfg.VCDepth),
			cut(cand, i, int(topo.NumDirs)*all), cut(pkts, i, queuePkts))
		net.nodes[i] = n
		net.AddTicker(i, n)
	}
	// Install per-flow injection budgets at the sources, rescaled from the
	// pattern's base frame to GSF's frame size. Best-effort mode carries no
	// budgets.
	if !cfg.BestEffort {
		ids := 0
		for _, f := range pattern.Flows {
			ids = max(ids, int(f.ID)+1)
		}
		net.flows = make([]flowState, ids)
		for _, f := range pattern.Flows {
			r := f.Reservation * cfg.FrameFlits / opts.BaseFrameFlits
			if r < cfg.PacketFlits {
				r = cfg.PacketFlits
			}
			net.flows[f.ID] = flowState{id: f.ID, src: f.Src, metered: true, r: r, ifr: 1, c: r}
		}
	}
	net.wire()
	net.SetLinks("gsf", net.linkFlits)
	net.OnCommit(perfmon.StageGSFFrame, net.commitFrames)
	net.registerGauges()
	// The self-profiler's occupancy gauges run in the serial commit, so
	// reading shared state is safe (registration is a no-op without -perf).
	opts.Perf.Gauge("gsf.srcq.flits", func() float64 { return float64(net.Backlog()) })
	opts.Perf.Gauge("gsf.inflight.flits", func() float64 { return float64(net.InFlight()) })
	net.bindAudit()
	return net, nil
}

// bindAudit registers the GSF-side invariant check. GSF has no reservation
// tables to shadow, so beyond the per-packet latency conformance New armed
// (against analysis.DelayBoundGSF) the auditor only tracks the head-frame
// flit census.
func (net *Network) bindAudit() {
	aud := net.Audit()
	if aud == nil {
		return
	}
	aud.RegisterCheck("gsf.frame-count", func() error {
		for _, frame := range det.Keys(net.frameCount) {
			c := net.frameCount[frame]
			if c < 0 {
				return fmt.Errorf("frame %d flit census is negative (%d)", frame, c)
			}
			if c > 0 && !net.cfg.BestEffort && frame < net.head {
				return fmt.Errorf("retired frame %d still holds %d flits (head %d)", frame, c, net.head)
			}
		}
		return nil
	})
}

// registerGauges publishes the source-queue backlog gauges and the
// network's source-stall cycles next to the harness's link rates. The
// registry polls them in the serial commit, so summing the nodes' own
// counts is safe under both engines. No-op when probing is disabled.
func (net *Network) registerGauges() {
	if net.Probe() == nil {
		return
	}
	net.Gauges(1, func(int) string { return "gsf.throttle.cycles" }, func(int) float64 {
		var sum uint64
		for _, n := range net.nodes {
			sum += n.throttleCycles
		}
		return float64(sum)
	})
	net.Gauges(len(net.nodes), func(i int) string { return fmt.Sprintf("gsf.srcq.n%d", i) },
		func(i int) float64 { return float64(net.nodes[i].srcQueue.Len()) })
}

// cut returns the i-th of the consecutive size-long pieces of slab.
func cut[T any](slab []T, i, size int) []T {
	return slab[i*size : (i+1)*size : (i+1)*size]
}

// wire gives every directed mesh link its output port, with one downstream
// VC state per VC, and its flit and credit registers, each kind taken from
// one slab with one entry per link.
func (net *Network) wire() {
	links := 0
	for _, n := range net.nodes {
		for d := topo.North; d < topo.Local; d++ {
			if _, ok := net.mesh.Neighbor(n.id, d); ok {
				links++
			}
		}
	}
	v := net.cfg.VirtualChannels
	outs := make([]outPort, links)
	down := make([]downVCState, links*v)
	flits := make([]sim.Reg[linkMsg], links)
	creds := make([]sim.Reg[creditMsg], links)
	i := 0
	for _, n := range net.nodes {
		for d := topo.North; d < topo.Local; d++ {
			nb, ok := net.mesh.Neighbor(n.id, d)
			if !ok {
				continue
			}
			outs[i].down = cut(down, i, v)
			for j := range outs[i].down {
				outs[i].down[j].credits = net.cfg.VCDepth
			}
			n.outs[d] = &outs[i]
			from, to := int(n.id), int(nb)
			flits[i].Init(label.New(flitName, from, to))
			n.flitOut[d] = &flits[i]
			peer := net.nodes[nb]
			opp := d.Opposite()
			peer.flitIn[opp] = &flits[i]
			creds[i].Init(label.New(credName, to, from))
			peer.credOut[opp] = &creds[i]
			n.credIn[d] = &creds[i]
			i++
		}
	}
}

// Component names, formatted only when read (label.Label).
func flitName(from, to int) string { return fmt.Sprintf("gsf.flit %d->%d", from, to) }
func credName(from, to int) string { return fmt.Sprintf("gsf.cred %d->%d", from, to) }
func srcqName(id, _ int) string    { return fmt.Sprintf("gsf.n%d.src", id) }

// vcName names input VC v of port d at node id, with b = d<<16 | v.
func vcName(id, b int) string {
	return fmt.Sprintf("gsf.n%d.%s.vc%d", id, topo.Dir(b>>16), b&0xffff)
}

// commitFrames is the harness's per-cycle commit hook: it applies every
// node's staged frame-census deltas, then advances the barrier controller.
// The deltas are sums, so node order does not matter here.
func (net *Network) commitFrames(now uint64) {
	for _, n := range net.nodes {
		for _, fd := range n.frameDeltas {
			net.frameCount[fd.frame] += fd.delta
		}
		n.frameDeltas = n.frameDeltas[:0]
	}
	net.tickBarrier(now)
}

// tickBarrier models the global barrier network: once no head-frame flit
// remains in the network, the window shifts after the barrier round-trip
// delay (16 cycles in Table 1). Best-effort mode has no barrier.
func (net *Network) tickBarrier(now uint64) {
	if net.cfg.BestEffort {
		return
	}
	if net.barrier > 0 {
		net.barrier--
		if net.barrier == 0 {
			delete(net.frameCount, net.head)
			net.head++
			if pr := net.Probe(); pr != nil {
				pr.Emit(now, probe.KindGSFFrameRoll, -1, -1, -1, uint64(net.head))
			}
		}
		return
	}
	if net.frameCount[net.head] == 0 {
		net.barrier = net.cfg.BarrierDelay
	}
}

// Head returns the current head frame (diagnostics).
func (net *Network) Head() int { return net.head }

// Drops returns packets dropped at full source queues.
func (net *Network) Drops() uint64 {
	var total uint64
	for _, n := range net.nodes {
		total += n.drops
	}
	return total
}

// Backlog returns total flits waiting in source queues.
func (net *Network) Backlog() int {
	total := 0
	for _, n := range net.nodes {
		total += n.srcQueue.Len()
	}
	return total
}

// SourceQueue returns node id's source-queue occupancy in flits and the
// packets its full queue dropped (diagnostics).
func (net *Network) SourceQueue(id topo.NodeID) (flits int, drops uint64) {
	n := net.nodes[id]
	return n.srcQueue.Len(), n.drops
}

// InFlight returns the number of flits inside the network (diagnostics).
func (net *Network) InFlight() int {
	total := 0
	for _, c := range net.frameCount {
		total += c
	}
	return total
}

// linkFlits reads one mesh output link's traffic counter for the harness's
// utilization map and heatmap (links move at most one flit per cycle).
func (net *Network) linkFlits(l topo.Link) (uint64, bool) {
	if n := net.nodes[l.From]; l.D < topo.Local && n.flitOut[l.D] != nil {
		return n.linkBusy[l.D], true
	}
	return 0, false
}
