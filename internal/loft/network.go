package loft

import (
	"fmt"

	"loft/internal/config"
	"loft/internal/det"
	"loft/internal/fault"
	"loft/internal/flit"
	"loft/internal/label"
	"loft/internal/lsf"
	"loft/internal/netsim"
	"loft/internal/perfmon"
	"loft/internal/sim"
	"loft/internal/topo"
	"loft/internal/traffic"
)

// Network is a complete LOFT mesh driving a traffic pattern. The engine,
// the statistics collectors and the observers are the embedded harness's;
// this type adds the LOFT nodes, their wiring and their reservations.
type Network struct {
	*netsim.Harness
	cfg     config.LOFT
	mesh    topo.Mesh
	pattern *traffic.Pattern
	nodes   []*Node
}

// Options tune a simulation run. LOFT models every fault kind of a plan:
// timed link-down windows, flit loss, credit stalls, router stalls and
// adversarial flows.
type Options = netsim.Options

// New builds a LOFT network for the given configuration and traffic
// pattern, installing the pattern's per-link flow reservations on every
// framed output reservation table (including injection and ejection links).
func New(cfg config.LOFT, pattern *traffic.Pattern, opts Options) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	linkFlows := pattern.LinkFlows()
	if err := pattern.ValidateLinks(linkFlows, cfg.FrameFlits, cfg.QuantumFlits); err != nil {
		return nil, err
	}
	mesh := cfg.Mesh()
	opts.Audit.BeginLOFT(cfg, mesh, pattern.Flows)
	h, err := netsim.New(mesh, pattern, opts)
	if err != nil {
		return nil, err
	}
	net := &Network{Harness: h, cfg: cfg, mesh: mesh, pattern: pattern}
	slab := make([]Node, mesh.N())
	net.nodes = make([]*Node, mesh.N())
	for i := range slab {
		n := &slab[i]
		n.init(topo.NodeID(i), cfg, mesh, h.Slot(i), linkFlows)
		net.nodes[i] = n
		net.AddTicker(i, n)
	}
	net.wire()
	if err := net.installReservations(linkFlows); err != nil {
		return nil, err
	}
	net.armFault(opts.Fault, opts.Seed)
	net.OnSettle(net)
	net.SetLinks("loft", net.linkFlits)
	net.registerGauges()
	net.registerPerfGauges(opts.Perf, opts.Fault)
	net.bindAudit()
	return net, nil
}

// armFault compiles the plan's link-level faults: each node gets its own
// runtime (nil when untargeted, preserving the clean fast path). The
// harness has already validated the plan and armed its adversaries. No-op
// when no plan is given.
func (net *Network) armFault(plan *fault.Plan, seed uint64) {
	if plan == nil {
		return
	}
	srcFlows := make([][]int, net.mesh.N())
	for _, f := range net.pattern.Flows {
		srcFlows[f.Src] = append(srcFlows[f.Src], int(f.ID))
	}
	for i, n := range net.nodes {
		n.fault = plan.Node(i, srcFlows[i], seed)
	}
}

// bindAudit adds LOFT's own checks to the auditor New armed with the
// pattern's per-flow delay bounds: invariant taps on every reservation table
// (injection, mesh output and ejection links), the cross-layer quantum
// conservation check and input-buffer occupancy bounds. No-op when auditing
// is disabled.
func (net *Network) bindAudit() {
	aud := net.Audit()
	if aud == nil {
		return
	}
	for _, n := range net.nodes {
		for _, t := range n.outTables {
			if t != nil {
				aud.WatchTable(t, t.Name(), n.obs)
			}
		}
	}
	// The flight recorder's quantum ledger must agree with the nodes' own
	// counters: every booked quantum was counted by an NI and every ejected
	// quantum by a sink, with nothing lost or duplicated in between.
	aud.RegisterCheck("loft.quantum-conservation", func() error {
		s := net.TotalStats()
		booked, _, ejected := aud.RecorderCounts()
		if booked != s.InjectedQuanta || ejected != s.EjectedQuanta {
			return fmt.Errorf("recorder saw %d booked / %d ejected quanta, nodes count %d / %d",
				booked, ejected, s.InjectedQuanta, s.EjectedQuanta)
		}
		return nil
	})
	// Input buffer occupancy: the credit protocol must keep every port
	// within its configured capacity and never drive it negative.
	aud.RegisterCheck("loft.input-buffers", func() error {
		for _, n := range net.nodes {
			for d := topo.North; d < topo.NumDirs; d++ {
				ip := &n.inputs[d]
				if ip.nonspecUsed < 0 || ip.nonspecUsed > net.cfg.BufferQuanta() {
					return fmt.Errorf("n%d.%s non-speculative occupancy %d outside [0,%d]",
						n.id, d, ip.nonspecUsed, net.cfg.BufferQuanta())
				}
				if ip.specUsed < 0 || ip.specUsed > net.cfg.SpecQuanta() {
					return fmt.Errorf("n%d.%s speculative occupancy %d outside [0,%d]",
						n.id, d, ip.specUsed, net.cfg.SpecQuanta())
				}
			}
		}
		return nil
	})
}

// registerGauges publishes LOFT's sampled time series next to the harness's
// link rates, one family each: the fill of every framed output reservation
// table (the injection table included), data input-buffer occupancy, and
// per-VC look-ahead buffer occupancy. No-op when probing is disabled.
func (net *Network) registerGauges() {
	if net.Probe() == nil {
		return
	}
	const ports = int(topo.NumDirs) + 1
	tables := make([]int, 0, len(net.nodes)*ports) // node*ports + port of every table
	for _, n := range net.nodes {
		for d, t := range n.outTables {
			if t != nil {
				tables = append(tables, int(n.id)*ports+d)
			}
		}
	}
	net.Gauges(len(tables), func(i int) string {
		n, d := tables[i]/ports, topo.Dir(tables[i]%ports)
		if d == topo.NumDirs {
			return fmt.Sprintf("loft.table.n%d.inject", n)
		}
		return fmt.Sprintf("loft.table.n%d.%s", n, d)
	}, func(i int) float64 {
		return net.nodes[tables[i]/ports].outTables[tables[i]%ports].Occupancy()
	})
	dirs := int(topo.NumDirs)
	net.Gauges(len(net.nodes)*dirs, func(i int) string {
		return fmt.Sprintf("loft.buf.n%d.%s", i/dirs, topo.Dir(i%dirs))
	}, func(i int) float64 {
		ip := &net.nodes[i/dirs].inputs[i%dirs]
		return float64(ip.nonspecUsed + ip.specUsed)
	})
	vcs := net.cfg.LAVirtualChannels
	net.Gauges(len(net.nodes)*dirs*vcs, func(i int) string {
		return fmt.Sprintf("loft.lavc.n%d.%s.vc%d", i/(dirs*vcs), topo.Dir(i/vcs%dirs), i%vcs)
	}, func(i int) float64 {
		return float64(net.nodes[i/(dirs*vcs)].la.vcLen[i/vcs%dirs][i%vcs])
	})
}

// registerPerfGauges publishes the self-profiler's occupancy gauges:
// aggregate NI backlog and mean reservation-table fill. They poll shared
// node state, which is safe because gauges run in the serial commit
// (registration is a no-op when profiling is off).
func (net *Network) registerPerfGauges(perf *perfmon.Monitor, plan *fault.Plan) {
	perf.Gauge("loft.ni.backlog", func() float64 { return float64(net.Backlog()) })
	if plan != nil {
		perf.Gauge("loft.fault.active", func() float64 {
			return float64(plan.ActiveAt(net.Now()))
		})
	}
	perf.Gauge("loft.table.occupancy", func() float64 {
		var sum float64
		var k int
		for _, n := range net.nodes {
			for i := range n.tables {
				sum += n.tables[i].Occupancy()
			}
			k += len(n.tables)
		}
		return sum / float64(k)
	})
}

// wire connects neighbors with link registers, each kind taken from one
// slab with one register per directed mesh link.
func (net *Network) wire() {
	links := 0
	for _, n := range net.nodes {
		for d := topo.North; d < topo.Local; d++ {
			if _, ok := net.mesh.Neighbor(n.id, d); ok {
				links++
			}
		}
	}
	data := make([]sim.Reg[dataMsg], links)
	la := make([]sim.Reg[flit.Lookahead], links)
	vcred := make([]sim.Reg[vcredMsg], links)
	rcred := make([]sim.Reg[rcredMsg], links)
	lacred := make([]sim.Reg[laCredMsg], links)
	i := 0
	for _, n := range net.nodes {
		for d := topo.North; d < topo.Local; d++ {
			nb, ok := net.mesh.Neighbor(n.id, d)
			if !ok {
				continue
			}
			from, to := int(n.id), int(nb)
			// Forward-direction registers written by n toward nb.
			data[i].Init(label.New(dataName, from, to))
			la[i].Init(label.New(laName, from, to))
			n.dataOut[d], n.laOut[d] = &data[i], &la[i]
			peer := net.nodes[nb]
			opp := d.Opposite()
			peer.dataIn[opp], peer.laIn[opp] = &data[i], &la[i]
			// Reverse-direction credit registers written by nb's input side.
			vcred[i].Init(label.New(vcredName, to, from))
			rcred[i].Init(label.New(rcredName, to, from))
			lacred[i].Init(label.New(laCredName, to, from))
			peer.vcredOut[opp], peer.rcredOut[opp], peer.laCredOut[opp] = &vcred[i], &rcred[i], &lacred[i]
			n.vcredIn[d], n.rcredIn[d], n.laCredIn[d] = &vcred[i], &rcred[i], &lacred[i]
			i++
		}
	}
}

// installReservations registers every flow on the tables of every link it
// may use, with R converted from flits to quanta (traffic.ReservedQuanta,
// which the pattern check applies too). The injection link uses
// the flow's own reservation like every other link of its path (§5.1: "a
// flow uses the same reservation R_ij for all links of its path"): this
// paces look-ahead generation to the flow's guaranteed rate (plus local
// status resets when the source is underusing its share), keeping the
// look-ahead network lightly loaded as the paper assumes. Without this
// pacing, sources flood the look-ahead VCs with unschedulable flits whose
// head-of-line blocking starves distant flows. linkFlows is the
// pattern's LinkFlows, which also sized every node's tables, so registering
// allocates nothing.
func (net *Network) installReservations(linkFlows map[topo.Link][]flit.FlowID) error {
	for _, link := range det.KeysFunc(linkFlows, topo.Link.Less) {
		table := net.nodes[link.From].outTables[link.D]
		if table == nil {
			return fmt.Errorf("loft: pattern uses nonexistent link %s", link)
		}
		for _, id := range linkFlows[link] {
			r := traffic.ReservedQuanta(net.pattern.Flow(id).Reservation, net.cfg.QuantumFlits)
			if err := table.AddFlow(id, r); err != nil {
				return err
			}
		}
	}
	return nil
}

// Settle applies every node's deferred table ticks (netsim.Settler); Run
// calls it before it returns.
func (net *Network) Settle() {
	for _, n := range net.nodes {
		n.catchUp()
	}
}

// Node returns node i (tests and diagnostics).
func (net *Network) Node(i topo.NodeID) *Node { return net.nodes[i] }

// TotalStats sums the per-node counters.
func (net *Network) TotalStats() NodeStats {
	var total NodeStats
	for _, n := range net.nodes {
		s := n.Stats()
		total.InjectedQuanta += s.InjectedQuanta
		total.EjectedQuanta += s.EjectedQuanta
		total.EjectedFlits += s.EjectedFlits
		total.Drops += s.Drops
		total.LateArrivals += s.LateArrivals
		total.EmergentDenied += s.EmergentDenied
		total.SpecForwards += s.SpecForwards
		total.SchedForwards += s.SchedForwards
		total.FaultsInjected += s.FaultsInjected
		total.FlitsLost += s.FlitsLost
		total.Retries += s.Retries
	}
	return total
}

// Backlog returns the total NI backlog in quanta (diagnostics).
func (net *Network) Backlog() int {
	total := 0
	for _, n := range net.nodes {
		total += n.Backlog()
	}
	return total
}

// ResetCount sums local status resets across all tables (diagnostics).
func (net *Network) ResetCount() uint64 {
	out, inj := net.SchedulerTotals()
	return out.Resets + inj.Resets
}

// SchedulerTotals aggregates lsf.Stats over all output tables plus all
// injection tables (diagnostics).
func (net *Network) SchedulerTotals() (out, inj lsf.Stats) {
	add := func(dst *lsf.Stats, s lsf.Stats) {
		dst.Requests += s.Requests
		dst.Scheduled += s.Scheduled
		dst.Throttled += s.Throttled
		dst.FrameSkips += s.FrameSkips
		dst.CondBlocks += s.CondBlocks
		dst.Resets += s.Resets
	}
	for _, n := range net.nodes {
		add(&inj, n.outTables[topo.NumDirs].Stats())
		for _, t := range n.outTables[:topo.NumDirs] {
			if t != nil {
				add(&out, t.Stats())
			}
		}
	}
	return out, inj
}

// linkFlits reads one output link's traffic counter for the harness's
// utilization map and heatmap. LOFT models the ejection links too.
func (net *Network) linkFlits(l topo.Link) (uint64, bool) {
	n := net.nodes[l.From]
	if n.outTables[l.D] == nil {
		return 0, false
	}
	return n.linkBusy[l.D] * uint64(net.cfg.QuantumFlits), true
}
