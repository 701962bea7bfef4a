// Package netsim is the network harness every simulated architecture is
// built on: the cycle engine, the traffic injectors, the four statistics
// collectors with their warm-up rule, and the probe / audit / perfmon /
// fault attachments. An architecture supplies nodes (sim.Tickers), the
// registers wiring them, its reservations and optionally a per-cycle commit
// hook; its Network embeds *Harness, so Run, Close, the collectors and the
// latency definitions are the same code for every architecture.
//
// Every cycle runs compute → serial commit under both engines; link
// registers need no commit of their own (see sim.Reg). A computing node
// reports what happens in it as records staged in its Slot; the commit
// replays the slots in node-id order, each slot's records in emission order
// and each record to the consumers whose kind set holds it, then runs the
// architecture's hook, the probe sampler, the auditor and the profiler.
// That fixed order keeps results and artifacts byte-identical for any
// worker count and any combination of observers.
package netsim

import (
	"fmt"

	"loft/internal/audit"
	"loft/internal/fault"
	"loft/internal/flit"
	"loft/internal/perfmon"
	"loft/internal/probe"
	"loft/internal/sim"
	"loft/internal/stats"
	"loft/internal/topo"
	"loft/internal/traffic"
)

// Options tune a simulation run, whatever the architecture.
type Options struct {
	// Seed drives every traffic injector deterministically.
	Seed uint64
	// Warmup is the cycle before which packets are excluded from stats.
	Warmup uint64
	// Probe enables the observability layer when non-nil: event tracing plus
	// periodic gauge sampling.
	Probe *probe.Probe
	// Audit enables the runtime QoS auditor when non-nil: a per-packet
	// flight recorder with delay-bound conformance checking plus the
	// architecture's invariant taps.
	Audit *audit.Auditor
	// Workers selects the cycle engine: 0 or 1 runs the sequential kernel,
	// N > 1 shards node stepping across N workers (sim.ParallelKernel),
	// capped at one worker per node. Results are byte-identical either way;
	// see DESIGN.md §13.
	Workers int
	// Perf enables the self-profiler when non-nil: per-stage wall-time
	// attribution on every node, engine phase telemetry under the parallel
	// kernel, and occupancy gauges; see DESIGN.md §14. No observer ever
	// changes simulation results.
	Perf *perfmon.Monitor
	// Fault arms a deterministic fault-injection plan when non-nil. The
	// harness applies its adversarial flows; link-level faults are the
	// architecture's to model. Faulted runs stay byte-reproducible for a
	// given (plan, seed) under any worker count; see DESIGN.md §16.
	Fault *fault.Plan
}

// Harness is the architecture-independent part of a simulated network.
type Harness struct {
	mesh   topo.Mesh
	engine sim.Engine
	probe  *probe.Probe
	audit  *audit.Auditor
	perf   *perfmon.Monitor
	// tracer is the probe's (nil without one); audited the kinds the
	// auditor's recorder consumes (empty without one).
	tracer  *probe.Tracer
	audited probe.KindSet
	// perfT times the serial commit (nil when profiling is off).
	perfT *perfmon.Timer

	slots []Slot

	hook      func(now uint64)
	hookStage perfmon.Stage
	settler   Settler
	linkFlits func(topo.Link) (uint64, bool)

	lat     *stats.Latency // total latency (generation → delivery)
	latNet  *stats.Latency // network latency (injection → delivery)
	latFlow *stats.FlowLatency
	thr     *stats.Throughput

	// gauges are the probe gauge families this network registered; Close
	// retires them.
	gauges []probe.Family
}

// New builds the harness for one run of pattern on mesh: the engine chosen
// by opts.Workers, one Slot per node, the collectors, and the plan's
// adversaries armed on the injectors and quarantined in the auditor. The
// architecture must have made its auditor Begin* call (which registers the
// run's flows) before.
func New(mesh topo.Mesh, pattern *traffic.Pattern, opts Options) (*Harness, error) {
	if pattern.Mesh.K != mesh.K {
		return nil, fmt.Errorf("netsim: pattern mesh %d does not match config mesh %d", pattern.Mesh.K, mesh.K)
	}
	if err := pattern.ValidateFlowIDs(); err != nil {
		return nil, err
	}
	if err := opts.Fault.Validate(mesh.N(), len(pattern.Flows)); err != nil {
		return nil, err
	}
	h := &Harness{
		mesh:    mesh,
		probe:   opts.Probe,
		audit:   opts.Audit,
		perf:    opts.Perf,
		tracer:  opts.Probe.Tracer(),
		audited: opts.Audit.Kinds(),
		lat:     stats.NewLatencySeeded(opts.Warmup, opts.Seed),
		latNet:  stats.NewLatencySeeded(opts.Warmup, opts.Seed),
		latFlow: stats.NewFlowLatency(opts.Warmup),
		thr:     stats.NewThroughput(opts.Warmup),
	}
	// The one place an engine is chosen; everything else registers through
	// sim.Engine.
	if workers := min(opts.Workers, mesh.N()); workers > 1 {
		par := sim.NewParallelKernel(workers)
		h.perf.SetWorkers(workers)
		par.SetPerf(h.perf.Engine(workers))
		h.engine = par
	} else {
		h.engine = sim.NewKernel()
	}
	h.engine.AddSerial(h.commit)
	// Every node stages what some consumer wants and nothing else: an
	// unobserved run stages only the two kinds the collectors read.
	want := collected | h.audited
	if h.tracer != nil {
		want |= probe.TracedKinds
	}
	h.slots = make([]Slot, mesh.N())
	for i := range h.slots {
		h.slots[i] = Slot{Stage: probe.NewStage(want), Perf: h.perf.Timer(),
			sent: [4][2]uint64{{never, never}, {never, never}, {never, never}, {never, never}}}
	}
	traffic.InitInjectors(pattern, opts.Seed, func(i int) *traffic.Injector { return &h.slots[i].Injector })
	for i := range h.slots {
		for d := topo.North; d < topo.Local; d++ {
			h.slots[i].recv[d] = &silent
			if nb, ok := mesh.Neighbor(topo.NodeID(i), d); ok {
				h.slots[i].recv[d] = &h.slots[nb].sent[d.Opposite()]
			}
		}
	}
	h.perfT = h.perf.Timer()
	if opts.Fault.HasAdversary() {
		scale := func(id flit.FlowID, now uint64) float64 {
			return opts.Fault.RateScale(int(id), now)
		}
		for i := range h.slots {
			h.slots[i].Injector.SetRateScale(scale)
		}
	}
	// Adversarial flows are quarantined: their delay-bound check is
	// meaningless (they exceed their reservation on purpose), so the auditor
	// asserts instead that they are throttled to their cap, while every
	// victim flow keeps its full per-packet bound.
	for _, q := range opts.Fault.Quarantines() {
		h.audit.Quarantine(flit.FlowID(q.Flow), q.Cap)
	}
	return h, nil
}

// Slot returns node i's slot.
func (h *Harness) Slot(i int) *Slot { return &h.slots[i] }

// AddTicker registers node i's compute-phase component; under the parallel
// engine the node index is also its shard.
func (h *Harness) AddTicker(i int, t sim.Ticker) { h.engine.AddTicker(i, t) }

// OnCommit installs the architecture's per-cycle commit hook, run after the
// slots are replayed and before the observers; its host time is attributed
// to stage.
func (h *Harness) OnCommit(stage perfmon.Stage, f func(now uint64)) {
	h.hook, h.hookStage = f, stage
}

// Settler is an architecture whose nodes may let state lag during quiet
// cycles (see loft.Node's quietTick).
type Settler interface {
	// Settle brings every piece of lagging state up to date.
	Settle()
}

// OnSettle installs the architecture whose Settle runs at the end of every
// Run, so that nothing outside the compute phase ever sees a lag.
func (h *Harness) OnSettle(s Settler) { h.settler = s }

// SetLinks installs the reader of the architecture's link counters — the
// flits a link has carried so far, or false for a link it does not model —
// and publishes every modeled link's per-cycle flit rate to the probe
// registry as <arch>.link.n<node>.<dir>. The heatmap reads the same
// counters. Call it once the links are wired.
func (h *Harness) SetLinks(arch string, f func(topo.Link) (uint64, bool)) {
	h.linkFlits = f
	reg := h.probe.Registry()
	if reg == nil {
		return
	}
	links := make([]topo.Link, 0, h.mesh.N()*int(topo.NumDirs))
	h.eachLink(func(l topo.Link, _ uint64) { links = append(links, l) })
	h.gauges = append(h.gauges, reg.Rates(len(links),
		func(i int) string { return fmt.Sprintf("%s.link.n%d.%s", arch, links[i].From, links[i].D) },
		func(i int) float64 {
			flits, _ := f(links[i])
			return float64(flits)
		}))
}

// Gauges publishes a family of n gauges to the probe registry (see
// probe.Registry.Gauges), polled until Close. No-op without a probe.
func (h *Harness) Gauges(n int, name func(i int) string, read func(i int) float64) {
	if reg := h.probe.Registry(); reg != nil {
		h.gauges = append(h.gauges, reg.Gauges(n, name, read))
	}
}

// eachLink visits every link the architecture models with its flit count.
func (h *Harness) eachLink(visit func(l topo.Link, flits uint64)) {
	for i := 0; i < h.mesh.N(); i++ {
		for d := topo.North; d < topo.NumDirs; d++ {
			l := topo.Link{From: topo.NodeID(i), D: d}
			if flits, ok := h.linkFlits(l); ok {
				visit(l, flits)
			}
		}
	}
}

// collected are the kinds the statistics collectors read.
var collected = probe.KindSetOf(probe.KindEject, probe.KindPacketDone)

// commit is the serial half of a cycle (see the package comment for its
// order). It is the one place staged records are replayed.
func (h *Harness) commit(now uint64) {
	h.perfT.Begin(now)
	for i := range h.slots {
		recs := h.slots[i].Stage.Drain()
		for j := range recs {
			r := &recs[j]
			if h.tracer != nil && probe.TracedKinds.Has(r.Kind) {
				h.tracer.Emit(r.Event)
			}
			if h.audit != nil && h.audited.Has(r.Kind) {
				h.audit.Record(r)
			}
			switch r.Kind {
			case probe.KindEject:
				h.thr.ObserveN(flit.FlowID(r.Flow), int(r.Loc), int(r.Aux), r.Cycle)
			case probe.KindPacketDone:
				created, injected, done := r.Aux, r.Arg, r.Cycle
				h.lat.Observe(created, done)
				h.latFlow.Observe(flit.FlowID(r.Flow), created, done)
				// Network latency follows the same warm-up rule as total
				// latency: a packet counts when it was generated after
				// warm-up, whenever it happened to be injected.
				if created >= h.latNet.Warmup() {
					h.latNet.Observe(injected, done)
				}
			}
		}
	}
	if h.hook != nil {
		h.perfT.Lap(perfmon.StageCommit)
		h.hook(now)
		h.perfT.Lap(h.hookStage)
	}
	if h.probe != nil {
		h.probe.MaybeSample(now)
	}
	if h.audit != nil {
		h.audit.OnCycle(now)
	}
	h.perfT.Lap(perfmon.StageCommit)
	h.perf.OnCycle(now)
}

// Run advances the simulation n cycles.
func (h *Harness) Run(n uint64) {
	h.engine.Run(n)
	if h.settler != nil {
		h.settler.Settle()
	}
	h.thr.Close(h.engine.Now())
}

// Now returns the current cycle.
func (h *Harness) Now() uint64 { return h.engine.Now() }

// Close releases engine resources (the parallel worker pool) and retires
// the network's probe gauges: their series keep what was sampled, and later
// sample points of a probe shared with other runs no longer poll them. The
// network stays usable: a later Run restarts the pool transparently, and
// still traces events, but samples no gauge of this network.
func (h *Harness) Close() {
	h.engine.Close()
	for _, f := range h.gauges {
		h.probe.Registry().Retire(f)
	}
	h.gauges = nil
}

// Probe returns the attached probe (nil when observability is disabled).
func (h *Harness) Probe() *probe.Probe { return h.probe }

// Audit returns the attached auditor (nil when auditing is disabled).
func (h *Harness) Audit() *audit.Auditor { return h.audit }

// Latency returns the total packet latency collector (generation to
// delivery, including source queueing).
func (h *Harness) Latency() *stats.Latency { return h.lat }

// NetLatency returns the network latency collector (injection to delivery).
func (h *Harness) NetLatency() *stats.Latency { return h.latNet }

// FlowLatency returns the per-flow latency collector.
func (h *Harness) FlowLatency() *stats.FlowLatency { return h.latFlow }

// Throughput returns the ejection throughput collector.
func (h *Harness) Throughput() *stats.Throughput { return h.thr }

// LinkUtilization returns, for every link the architecture models, the
// fraction of cycles it carried data over the run so far.
func (h *Harness) LinkUtilization() map[topo.Link]float64 {
	cycles := float64(h.engine.Now())
	if cycles == 0 {
		return nil
	}
	out := make(map[topo.Link]float64)
	h.eachLink(func(l topo.Link, flits uint64) { out[l] = float64(flits) / cycles })
	return out
}

// Heatmap renders per-node link utilization as an ASCII grid (see
// topo.RenderHeatmap).
func (h *Harness) Heatmap() string {
	return topo.RenderHeatmap(h.mesh, h.LinkUtilization())
}

// Slot is what the harness gives one node: its traffic Injector, the Stage
// it reports simulated occurrences into while computing — probe events, the
// auditor's recorder operations and statistics observations alike; the
// harness replays them at the cycle barrier — its Perf stage timer (nil
// when profiling is off), and its link activity stamps.
//
// The stamps tell a node which of its four mesh neighbours wrote anything
// toward it, so it takes only those links' registers instead of polling
// every one. sent[d] holds, like a sim.Reg, two parity slots stamped with
// the cycle in which the values this node wrote on its links toward d
// become readable: a write in cycle n stamps slot (n+1)&1 and a read in
// cycle n looks at slot n&1 of the neighbour's stamps. Each word has one
// writer, its node, and is read by one neighbour only in the cycle after
// the write, across the cycle barrier, so the stamps are race-free under
// both engines. recv[d] points at the stamps of the neighbour toward d (at
// a never-stamped pair at a mesh edge); New wires them once from the mesh.
type Slot struct {
	Injector traffic.Injector
	Stage    probe.Stage
	Perf     *perfmon.Timer

	sent [4][2]uint64
	recv [4]*[2]uint64
}

// never stamps an empty parity slot: no cycle reaches it.
const never = ^uint64(0)

// silent is the stamp pair of the missing neighbour beyond a mesh edge.
var silent = [2]uint64{never, never}

// Sent records that the node wrote, in cycle now, a value on a link toward
// its neighbour in direction d (North..West): the neighbour reads it in
// cycle now+1.
func (s *Slot) Sent(d topo.Dir, now uint64) { s.sent[d][(now+1)&1] = now + 1 }

// Arrivals returns the set of directions whose neighbour wrote toward this
// node in cycle now-1, as bit d for direction d: the links whose registers
// hold a value to take in cycle now.
func (s *Slot) Arrivals(now uint64) uint8 {
	i := now & 1
	var in uint8
	for d := range s.recv {
		in |= bit(s.recv[d][i] == now) << d
	}
	return in
}

// bit is 1 for true and 0 for false: Arrivals sets its bits without a
// branch, which a busy node would mispredict.
func bit(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}
