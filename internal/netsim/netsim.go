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
	linkFlits func(topo.Link) (uint64, bool)

	lat     *stats.Latency // total latency (generation → delivery)
	latNet  *stats.Latency // network latency (injection → delivery)
	latFlow *stats.FlowLatency
	thr     *stats.Throughput
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
			Injector: traffic.NewInjector(pattern, topo.NodeID(i), opts.Seed)}
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
	h.eachLink(func(l topo.Link, _ uint64) {
		reg.Rate(fmt.Sprintf("%s.link.n%d.%s", arch, l.From, l.D), func() float64 {
			flits, _ := f(l)
			return float64(flits)
		})
	})
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
	h.thr.Close(h.engine.Now())
}

// Now returns the current cycle.
func (h *Harness) Now() uint64 { return h.engine.Now() }

// Close releases engine resources (the parallel worker pool). The network
// stays usable: a later Run restarts the pool transparently.
func (h *Harness) Close() { h.engine.Close() }

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
// harness replays them at the cycle barrier — and its Perf stage timer (nil
// when profiling is off).
type Slot struct {
	Injector *traffic.Injector
	Stage    probe.Stage
	Perf     *perfmon.Timer
}
