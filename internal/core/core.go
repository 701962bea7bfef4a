// Package core is the public facade of the LOFT reproduction: it builds and
// runs LOFT and GSF networks against the paper's traffic patterns and
// returns uniform result summaries. Command-line tools, examples and the
// benchmark harness all drive the system through this package.
package core

import (
	"fmt"

	"loft/internal/audit"
	"loft/internal/config"
	"loft/internal/fault"
	"loft/internal/flit"
	"loft/internal/gsf"
	"loft/internal/loft"
	"loft/internal/netsim"
	"loft/internal/perfmon"
	"loft/internal/probe"
	"loft/internal/traffic"
)

// Arch names a network architecture.
type Arch string

// Supported architectures.
const (
	ArchLOFT Arch = "loft"
	ArchGSF  Arch = "gsf"
)

// RunSpec describes one simulation run.
type RunSpec struct {
	// Seed drives all traffic generators deterministically.
	Seed uint64
	// Warmup cycles are excluded from every statistic.
	Warmup uint64
	// Measure cycles are simulated after warmup.
	Measure uint64
	// Probe attaches the observability layer when non-nil. Probing never
	// changes simulation results.
	Probe *probe.Probe
	// Audit attaches the runtime QoS auditor when non-nil: it shadows
	// scheduler invariants, records per-packet flight timelines and checks
	// delivered latencies against the analytical delay bounds. Auditing
	// never changes simulation results. Violations accumulate on the
	// auditor across runs; callers decide whether they are fatal.
	Audit *audit.Auditor
	// Workers selects the intra-run cycle engine: 0 or 1 runs sequentially,
	// N > 1 shards node ticking across N OS threads. Results are
	// byte-identical for any value (see DESIGN.md §13).
	Workers int
	// Perf attaches the self-profiler when non-nil: stage-level wall-time
	// attribution, parallel-engine telemetry and occupancy gauges.
	// Profiling never changes simulation results (see DESIGN.md §14).
	Perf *perfmon.Monitor
	// Stop, when non-nil, is polled between simulation chunks; once it
	// returns true the run ends early at a chunk boundary. The partial run
	// still finishes cleanly (audit FinishRun, stats close), so CLIs use it
	// to flush final snapshots on SIGINT.
	Stop func() bool
	// Fault arms a deterministic fault-injection plan when non-nil: timed
	// link/router faults and adversarial flows with graceful degradation.
	// A faulted run is byte-reproducible for a given (plan, seed) under
	// any worker count (see DESIGN.md §16). GSF accepts adversary-only
	// plans.
	Fault *fault.Plan
}

// Total returns warmup + measure cycles.
func (r RunSpec) Total() uint64 { return r.Warmup + r.Measure }

// stopChunk is the polling granularity for RunSpec.Stop: small enough that
// interrupt latency stays imperceptible, large enough that the per-chunk
// overhead (a closure call and a stats close) vanishes in the noise.
const stopChunk = 1024

// runNetwork advances a network Total() cycles, honoring the optional Stop
// poll at chunk boundaries. Chunked Run calls are byte-identical to one big
// Run: every cycle's work depends only on the cycle number, and
// Throughput.Close is monotonic in `now`, so the last call wins.
func runNetwork(run func(n uint64), spec RunSpec) {
	total := spec.Total()
	if spec.Stop == nil {
		run(total)
		return
	}
	for total > 0 && !spec.Stop() {
		c := uint64(stopChunk)
		if total < c {
			c = total
		}
		run(c)
		total -= c
	}
}

// Result summarizes one run.
type Result struct {
	Arch Arch
	// AvgLatency/MaxLatency are total packet latencies from generation to
	// delivery (source queueing included, as in the paper's Fig. 12).
	AvgLatency float64
	MaxLatency uint64
	P50Latency float64
	P99Latency float64
	// AvgNetLatency/MaxNetLatency count from network injection to
	// delivery (the paper's Fig. 11 load-latency curves).
	AvgNetLatency float64
	MaxNetLatency uint64
	Packets       uint64
	TotalRate     float64 // aggregate accepted throughput, flits/cycle
	FlowRate      map[flit.FlowID]float64
	FlowLatency   map[flit.FlowID]float64 // per-flow average total latency
	NodeRate      map[int]float64
	SpecForward   uint64 // LOFT only
	Resets        uint64 // LOFT only
	Drops         uint64 // GSF only (source queue overflow)
	// Fault-injection accounting (zero on clean runs; LOFT only — GSF
	// plans are adversary-only and inject nothing at the link level).
	FaultsInjected uint64 // discrete fault applications
	FlitsLost      uint64 // flits in fault-denied forwards (all retried)
	Retries        uint64 // fault-denied quanta that later crossed their link
}

// run drives a freshly built network through spec and summarizes it: the
// run loop, the audit bracket and the summary are the same for every
// architecture because they only touch the harness.
func run(arch Arch, net *netsim.Harness, p *traffic.Pattern, spec RunSpec) Result {
	if spec.Audit != nil {
		spec.Audit.StartRun(spec.Total())
	}
	runNetwork(net.Run, spec)
	if spec.Audit != nil {
		spec.Audit.FinishRun(net.Now())
	}
	net.Close()
	lat, latNet, latFlow, thr := net.Latency(), net.NetLatency(), net.FlowLatency(), net.Throughput()
	res := Result{
		Arch:          arch,
		AvgLatency:    lat.Mean(),
		MaxLatency:    lat.Max(),
		P50Latency:    lat.Percentile(50),
		P99Latency:    lat.Percentile(99),
		AvgNetLatency: latNet.Mean(),
		MaxNetLatency: latNet.Max(),
		Packets:       lat.Count(),
		TotalRate:     thr.Total(),
		FlowRate:      make(map[flit.FlowID]float64, len(p.Flows)),
		FlowLatency:   make(map[flit.FlowID]float64, len(p.Flows)),
		NodeRate:      make(map[int]float64, p.Mesh.N()),
	}
	for _, f := range p.Flows {
		res.FlowRate[f.ID] = thr.Flow(f.ID)
		res.FlowLatency[f.ID] = latFlow.Mean(f.ID)
	}
	for n := 0; n < p.Mesh.N(); n++ {
		res.NodeRate[n] = thr.Node(n)
	}
	return res
}

// Run builds and runs the paper's configuration of arch on pattern p and
// returns the result summary: LOFT as configured by lcfg, GSF with Table 1's
// parameters and its budgets rescaled from lcfg's frame size. Callers that
// need the network afterwards use RunLOFT or RunGSF.
func Run(arch Arch, lcfg config.LOFT, p *traffic.Pattern, spec RunSpec) (res Result, err error) {
	switch arch {
	case ArchLOFT:
		res, _, err = RunLOFT(lcfg, p, spec)
	case ArchGSF:
		res, _, err = RunGSF(config.PaperGSF(), p, lcfg.FrameFlits, spec)
	default:
		err = fmt.Errorf("core: unknown architecture %q", arch)
	}
	return res, err
}

// RunLOFT builds a LOFT network for cfg and pattern, runs it, and returns
// the result summary together with the network for further inspection.
func RunLOFT(cfg config.LOFT, p *traffic.Pattern, spec RunSpec) (Result, *loft.Network, error) {
	net, err := loft.New(cfg, p, loft.Options{Seed: spec.Seed, Warmup: spec.Warmup, Probe: spec.Probe, Audit: spec.Audit, Workers: spec.Workers, Perf: spec.Perf, Fault: spec.Fault})
	if err != nil {
		return Result{}, nil, err
	}
	res := run(ArchLOFT, net.Harness, p, spec)
	s := net.TotalStats()
	res.SpecForward = s.SpecForwards
	res.Resets = net.ResetCount()
	res.Drops = s.Drops
	res.FaultsInjected = s.FaultsInjected
	res.FlitsLost = s.FlitsLost
	res.Retries = s.Retries
	return res, net, nil
}

// RunGSF builds a GSF network for cfg and pattern and runs it. The
// pattern's reservations (expressed against baseFrameFlits) are rescaled to
// GSF's frame size.
func RunGSF(cfg config.GSF, p *traffic.Pattern, baseFrameFlits int, spec RunSpec) (Result, *gsf.Network, error) {
	net, err := gsf.New(cfg, p, gsf.Options{Seed: spec.Seed, Warmup: spec.Warmup, BaseFrameFlits: baseFrameFlits, Probe: spec.Probe, Audit: spec.Audit, Workers: spec.Workers, Perf: spec.Perf, Fault: spec.Fault})
	if err != nil {
		return Result{}, nil, err
	}
	res := run(ArchGSF, net.Harness, p, spec)
	res.Drops = net.Drops()
	return res, net, nil
}
