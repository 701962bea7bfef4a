// Package traffic defines the synthetic workloads of the paper's evaluation
// (§6): uniform, hotspot (equal and differentiated allocation), Case Study I
// (denial-of-service aggressors against a regulated victim) and Case Study II
// (the Fig. 1 pathological pattern), plus auxiliary patterns used by tests.
//
// A Pattern bundles the flow set (with per-frame reservations R_ij), the
// per-node packet generators, and how reservations map onto links.
package traffic

import (
	"fmt"

	"loft/internal/det"
	"loft/internal/flit"
	"loft/internal/route"
	"loft/internal/sim"
	"loft/internal/topo"
)

// Gen describes one packet generator at a source node.
type Gen struct {
	Flow flit.FlowID
	// Rate is the offered load in flits/cycle for this generator.
	Rate float64
	// Dst is the fixed destination; ignored when RandomDst is set.
	Dst topo.NodeID
	// RandomDst picks a fresh uniform destination (≠ src) per packet.
	RandomDst bool
	// Burst/Gap, when positive, switch the generator to an on/off process:
	// geometrically-distributed bursts of back-to-back packets (mean Burst
	// cycles) separated by idle gaps (mean Gap cycles). Rate is ignored.
	Burst, Gap int
}

// Pattern is a complete workload description.
type Pattern struct {
	Name  string
	Mesh  topo.Mesh
	Flows []flit.Flow
	// Gens maps each source node to its generators.
	Gens map[topo.NodeID][]Gen
	// AllLinks installs every flow's reservation on every link (used for
	// uniform traffic, where destinations are random and any flow may use
	// any link; Table 1 sizes for 64 contending flows per link).
	AllLinks bool
	// PacketFlits is the packet size in data flits (Table 1: 4).
	PacketFlits int
	// Trace, when non-nil, replays recorded events instead of running the
	// stochastic generators (see FromTrace).
	Trace     map[topo.NodeID][]TraceEvent
	traceFlow func(src, dst topo.NodeID) flit.FlowID
}

// Flow returns the flow record for id.
func (p *Pattern) Flow(id flit.FlowID) flit.Flow { return p.Flows[id] }

// ValidateFlowIDs checks that the flow ids are 0..len(Flows)-1 in order,
// so that a flow id indexes Flows and every per-flow table built from them.
// Check it before anything indexes by flow id.
func (p *Pattern) ValidateFlowIDs() error {
	for i, f := range p.Flows {
		if int(f.ID) != i {
			return fmt.Errorf("traffic: flow %d has id %d; the ids must be 0..%d in order", i, f.ID, len(p.Flows)-1)
		}
	}
	return nil
}

// SetRate overrides the offered load of every generator (flits/cycle/node),
// used by load sweeps.
func (p *Pattern) SetRate(rate float64) {
	for n, gens := range p.Gens {
		for i := range gens {
			gens[i].Rate = rate
		}
		p.Gens[n] = gens
	}
}

// LinkFlows returns, for every link, the flows whose reservations are
// installed on it, in flow order. For path-based patterns these are the
// XY-path links of each flow plus its injection link; for AllLinks patterns
// every flow is installed everywhere it could appear, so every mesh and
// ejection link shares one list of all flows. The lists share storage:
// callers must not modify them.
func (p *Pattern) LinkFlows() map[topo.Link][]flit.FlowID {
	// Every (link, flow) pair is visited twice: once to count each link's
	// flows, once to fill lists cut from one array at their final lengths.
	// pos[s+1] counts link slot s, then pos[s] becomes its start, and the
	// fill advances it to its end, which is the next slot's start.
	const dirs = int(topo.NumDirs) + 1
	slots := p.Mesh.N() * dirs
	pos := make([]int, slots+1)
	p.eachLinkFlow(func(l topo.Link, _ flit.FlowID) { pos[int(l.From)*dirs+int(l.D)+1]++ })
	links := 0
	for s := 1; s <= slots; s++ {
		if pos[s] > 0 {
			links++
		}
		pos[s] += pos[s-1]
	}
	flat := make([]flit.FlowID, pos[slots])
	p.eachLinkFlow(func(l topo.Link, f flit.FlowID) {
		s := int(l.From)*dirs + int(l.D)
		flat[pos[s]] = f
		pos[s]++
	})
	var all []flit.FlowID
	if p.AllLinks && len(p.Flows) > 0 {
		links += p.Mesh.N() * int(topo.NumDirs)
		all = make([]flit.FlowID, len(p.Flows))
		for i, f := range p.Flows {
			all[i] = f.ID
		}
	}
	out := make(map[topo.Link][]flit.FlowID, links)
	start := 0
	for s := 0; s < slots; s++ {
		if end := pos[s]; end > start {
			out[topo.Link{From: topo.NodeID(s / dirs), D: topo.Dir(s % dirs)}] = flat[start:end:end]
			start = end
		}
	}
	for n := 0; all != nil && n < p.Mesh.N(); n++ {
		for d := topo.North; d < topo.NumDirs; d++ {
			if _, ok := p.Mesh.Neighbor(topo.NodeID(n), d); ok || d == topo.Local {
				out[topo.Link{From: topo.NodeID(n), D: d}] = all
			}
		}
	}
	return out
}

// eachLinkFlow calls fn for every (link, flow) pair that LinkFlows lists
// separately, in flow order: each flow's injection link, then, unless the
// pattern installs every flow on every mesh and ejection link, its XY path.
func (p *Pattern) eachLinkFlow(fn func(topo.Link, flit.FlowID)) {
	for _, f := range p.Flows {
		fn(topo.InjectionLink(f.Src), f.ID)
		if p.AllLinks {
			continue
		}
		for _, l := range route.Path(p.Mesh, f.Src, f.Dst) {
			fn(l, f.ID)
		}
	}
}

// ReservedQuanta is the reservation, in whole quanta per frame, that a
// LOFT reservation table installs for a flow reserving reservationFlits
// flits: the flits in whole quanta, and at least one quantum, so a flow
// reserving less than a quantum still gets a slot.
func ReservedQuanta(reservationFlits, quantumFlits int) int {
	return max(reservationFlits/quantumFlits, 1)
}

// Validate checks the LSF admission constraint ΣR_ij ≤ F on every link, in
// quanta as the reservation tables install the reservations
// (ReservedQuanta), so a pattern it accepts installs on every table.
func (p *Pattern) Validate(frameFlits, quantumFlits int) error {
	return p.ValidateLinks(p.LinkFlows(), frameFlits, quantumFlits)
}

// ValidateLinks is Validate over linkFlows, which must be p.LinkFlows(): a
// caller that needs the lists anyway builds them once for both.
func (p *Pattern) ValidateLinks(linkFlows map[topo.Link][]flit.FlowID, frameFlits, quantumFlits int) error {
	slots := frameFlits / quantumFlits
	for _, l := range det.KeysFunc(linkFlows, topo.Link.Less) {
		sum := 0
		for _, id := range linkFlows[l] {
			sum += ReservedQuanta(p.Flows[id].Reservation, quantumFlits)
		}
		if sum > slots {
			return fmt.Errorf("traffic: ΣR=%d quanta exceeds frame size %d quanta on link %s", sum, slots, l)
		}
	}
	return nil
}

// Injector is the per-node runtime that turns generator specs into packets
// with a Bernoulli process, deterministic per (seed, node).
type Injector struct {
	node topo.NodeID
	gens []Gen
	rng  sim.RNG
	// seq holds the next packet sequence per flow. Flow ids are dense
	// indices into Pattern.Flows, so a slice replaces the map the hot
	// injection loop used to hash into every packet.
	seq []uint64
	p   *Pattern
	// on tracks the burst state per generator index for on/off generators.
	on []bool
	// scratch backs the slice Next returns; callers consume the packets
	// before the next call, so reusing the array keeps the per-cycle
	// injection path allocation-free.
	scratch []flit.Packet
	// rateScale, when non-nil, multiplies each rate generator's packet
	// probability (the fault layer's adversary hook). It must be a pure
	// function of (flow, cycle): scaling moves the Bernoulli threshold but
	// never the draw count, so the RNG stream — and with it every clean
	// flow's injection sequence — is untouched.
	rateScale func(flit.FlowID, uint64) float64
	// trace replay state: remaining events for this node, cycle-sorted.
	trace []TraceEvent
}

// NewInjector returns the injector for node n under pattern p.
func NewInjector(p *Pattern, n topo.NodeID, seed uint64) *Injector {
	in := new(Injector)
	in.init(p, n, seed, make([]uint64, len(p.Flows)), make([]bool, len(p.Gens[n])))
	return in
}

// InitInjectors sets up, in place, the injector of every node of p's mesh
// as NewInjector builds it: at(i) is node i's. The nodes' per-flow sequence
// numbers and burst states are cut from one slab per kind.
func InitInjectors(p *Pattern, seed uint64, at func(i int) *Injector) {
	n, gens := p.Mesh.N(), 0
	for i := 0; i < n; i++ {
		gens += len(p.Gens[topo.NodeID(i)])
	}
	flows := len(p.Flows)
	seq, on := make([]uint64, n*flows), make([]bool, gens)
	for i := 0; i < n; i++ {
		k := len(p.Gens[topo.NodeID(i)])
		at(i).init(p, topo.NodeID(i), seed, seq[i*flows:(i+1)*flows:(i+1)*flows], on[:k:k])
		on = on[k:]
	}
}

// init sets in up as node n's injector under p, with seq (one zero per
// flow) and on (one false per generator) as its storage.
func (in *Injector) init(p *Pattern, n topo.NodeID, seed uint64, seq []uint64, on []bool) {
	if p.Trace != nil {
		*in = Injector{node: n, p: p, seq: seq, trace: p.Trace[n]}
		return
	}
	*in = Injector{
		node: n,
		gens: p.Gens[n],
		rng:  *sim.NewRNG(sim.SeedFor(seed, int(n))),
		seq:  seq,
		p:    p,
		on:   on,
	}
}

// SetRateScale installs a multiplier on every rate generator's injection
// probability, keyed by (flow, cycle). Applies to Bernoulli-rate
// generators only (on/off burst generators pace by state, not rate); trace
// replay ignores it.
func (in *Injector) SetRateScale(f func(flit.FlowID, uint64) float64) { in.rateScale = f }

// nextSeq returns flow id's next packet sequence number and advances it.
func (in *Injector) nextSeq(id flit.FlowID) uint64 {
	for int(id) >= len(in.seq) {
		in.seq = append(in.seq, 0)
	}
	s := in.seq[id]
	in.seq[id]++
	return s
}

// Next returns the packets generated at cycle now (usually zero or one per
// generator).
// The returned slice is only valid until the next call: it aliases a
// scratch buffer owned by the injector.
func (in *Injector) Next(now uint64) []flit.Packet {
	out := in.scratch[:0]
	if in.p.Trace != nil {
		for len(in.trace) > 0 && in.trace[0].Cycle <= now {
			ev := in.trace[0]
			in.trace = in.trace[1:]
			id := in.p.traceFlow(ev.Src, ev.Dst)
			out = append(out, flit.Packet{
				Flow: id, Src: ev.Src, Dst: ev.Dst,
				Seq: in.nextSeq(id), Flits: ev.Flits, Created: now,
			})
		}
		in.scratch = out
		return out
	}
	for gi, g := range in.gens {
		if g.Burst > 0 && g.Gap > 0 {
			// On/off process: geometric dwell times in each state.
			if in.on[gi] {
				if in.rng.Bernoulli(1 / float64(g.Burst)) {
					in.on[gi] = false
				}
			} else if in.rng.Bernoulli(1 / float64(g.Gap)) {
				in.on[gi] = true
			}
			if !in.on[gi] || now%uint64(in.p.PacketFlits) != 0 {
				continue
			}
			// Burst state: one packet per packet-time (full link rate).
		} else {
			pPkt := g.Rate / float64(in.p.PacketFlits)
			if in.rateScale != nil {
				pPkt *= in.rateScale(g.Flow, now)
			}
			if pPkt <= 0 || !in.rng.Bernoulli(min(pPkt, 1)) {
				continue
			}
		}
		dst := g.Dst
		if g.RandomDst {
			for {
				dst = topo.NodeID(in.rng.Intn(in.p.Mesh.N()))
				if dst != in.node {
					break
				}
			}
		}
		out = append(out, flit.Packet{
			Flow:    g.Flow,
			Src:     in.node,
			Dst:     dst,
			Seq:     in.nextSeq(g.Flow),
			Flits:   in.p.PacketFlits,
			Created: now,
		})
	}
	in.scratch = out
	return out
}

func min(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
