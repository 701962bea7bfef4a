// Command loftsim runs a single NoC simulation and prints a summary.
//
// Examples:
//
//	loftsim -arch loft -pattern uniform -rate 0.3 -cycles 20000
//	loftsim -arch gsf  -pattern hotspot -rate 0.01
//	loftsim -arch loft -pattern case1 -rate 0.6 -spec 8 -v
//	loftsim -arch loft -pattern case1 -rate 0.6 -probe -out runs/case1
//	loftsim -arch loft -pattern case1 -rate 0.6 -fault chaos.plan -audit
//
// With -probe the observability layer traces scheduler, switch and frame
// events and samples link/buffer/table gauges every -probe-sample cycles;
// a per-kind event summary is printed. -out DIR writes a run directory
// instead: manifest.json recording the configuration, seeds, environment,
// result metrics and artifact checksums, plus the files of each attached
// observer — events.jsonl (the event dump), series.csv (the sampled time
// series) and trace.json (a Chrome trace_event file loadable at
// https://ui.perfetto.dev) from -probe, audit.json from -audit, perf.json
// and perf.folded from -perf. cmd/lofttrace summarizes, decomposes and
// diffs run directories offline.
//
// With -fault the simulator arms a deterministic fault-injection plan —
// timed link-down windows, flit loss, credit stalls, router stalls and
// adversarial flows (inline spec or a plan file; syntax in internal/fault and
// DESIGN.md §16). Degradation is graceful: denied quanta retry via the
// overdue/emergent path and the run reports faults injected, flits lost and
// retries. Combined with -audit, quarantined adversarial flows are checked
// for throttling while victim flows keep their delay bounds. Faulted runs
// are byte-reproducible for a given (plan, seed).
//
// With -audit the runtime QoS auditor shadows the schedulers: it checks
// flit/credit conservation and the admission inequality on every grant,
// records each packet's hop-by-hop flight timeline, and verifies delivered
// latencies against the paper's analytical delay bounds. Violations are
// printed and make the run exit non-zero.
//
// With -perf the simulator profiles itself: cheap monotonic stage timers
// attribute wall time to each router pipeline stage on a sampled subset of
// cycles (-perf-sample). Profiling never changes simulation results. With
// -out the run directory receives perf.json and perf.folded (load in any
// flamegraph viewer); otherwise the stage-attribution table prints to
// stdout. -cpuprofile adds a pprof CPU profile wherever it is pointed.
//
// SIGINT stops the run gracefully at the next chunk boundary: all requested
// artifacts — probe exports, audit and perf snapshots, manifest — are
// flushed for the partial run before the process exits 130.
package main

import (
	"flag"
	"fmt"
	"os"

	"loft/internal/config"
	"loft/internal/core"
	"loft/internal/det"
	"loft/internal/runio"
	"loft/internal/stats"
	"loft/internal/sweep"
	"loft/internal/trace"
	"loft/internal/traffic"
)

func main() {
	s := &runio.Session{Tool: "loftsim"}
	s.Flags(flag.CommandLine)
	var (
		arch     = flag.String("arch", "loft", "architecture: loft or gsf")
		pattern  = flag.String("pattern", "uniform", "traffic: "+patternNames())
		rate     = flag.Float64("rate", 0.1, "offered load in flits/cycle/node (aggressor rate for case1)")
		spec     = flag.Int("spec", 12, "LOFT speculative buffer size in flits (0 disables §4.3 optimizations)")
		warmup   = flag.Uint64("warmup", 5000, "warmup cycles excluded from statistics")
		cycles   = flag.Uint64("cycles", 20000, "measured cycles")
		verbose  = flag.Bool("v", false, "print per-flow rates")
		heatmap  = flag.Bool("heatmap", false, "print an ASCII link-utilization heatmap")
		replay   = flag.String("trace", "", "replay a workload trace file instead of a synthetic pattern")
		genTrace = flag.Int("gentrace", 0, "emit a synthetic trace with this many packets to stdout and exit")
		seeds    = flag.Int("seeds", 1, "run this many seeds (seed, seed+1, ...) across -j workers and report per-seed plus aggregate statistics")
	)
	flag.Parse()
	if err := s.Load(flag.CommandLine); err != nil {
		s.BadUsage(err)
	}
	if err := validateFlags(cliFlags{
		Arch: *arch, Pattern: *pattern, Trace: *replay, GenTrace: *genTrace,
		Rate: *rate, Cycles: *cycles, Spec: *spec, Seeds: *seeds, Verbose: *verbose, Heatmap: *heatmap,
		Workers: s.Workers, JSet: s.JSet,
		Observed: s.Observed(), Plan: s.Plan,
	}); err != nil {
		s.BadUsage(err)
	}

	lcfg := config.PaperLOFTSpec(*spec)
	mesh := lcfg.Mesh()
	if *genTrace > 0 {
		events := traffic.SyntheticTrace(mesh, *genTrace, *cycles, lcfg.PacketFlits, s.Seed)
		if err := traffic.WriteTrace(os.Stdout, events); err != nil {
			s.Fatal(err)
		}
		return
	}
	var p *traffic.Pattern
	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			s.Fatal(err)
		}
		events, err := traffic.ParseTrace(f)
		f.Close()
		if err != nil {
			s.Fatal(err)
		}
		if p, err = traffic.FromTrace(mesh, events, lcfg.PacketFlits, lcfg.FrameFlits, lcfg.QuantumFlits); err != nil {
			s.Fatal(err)
		}
		// Trace replays measure every packet: no warmup exclusion unless
		// explicitly requested.
		explicit := false
		flag.Visit(func(f *flag.Flag) { explicit = explicit || f.Name == "warmup" })
		if !explicit {
			*warmup = 0
		}
	} else {
		build, err := lookupPattern(*pattern)
		if err == nil {
			p, err = build(lcfg, *rate)
		}
		if err != nil {
			s.BadUsage(err)
		}
	}
	if err := s.Plan.Validate(mesh.N(), len(p.Flows)); err != nil {
		s.BadUsage(err)
	}
	if err := s.Start(); err != nil {
		s.Fatal(err)
	}

	run := core.RunSpec{Seed: s.Seed, Warmup: *warmup, Measure: *cycles, Probe: s.Probe, Audit: s.Audit, Perf: s.Perf, Stop: s.Interrupted, Fault: s.Plan}
	a := core.Arch(*arch)
	if *seeds > 1 {
		if err := runSeeds(s, a, lcfg, p, run, *seeds, *rate); err != nil {
			s.Fatal(err)
		}
		os.Exit(s.Finish())
	}
	// Only the heatmap needs the network after the run.
	var res core.Result
	var net interface{ Heatmap() string }
	var err error
	if a == core.ArchGSF {
		res, net, err = core.RunGSF(config.PaperGSF(), p, lcfg.FrameFlits, run)
	} else {
		res, net, err = core.RunLOFT(lcfg, p, run)
	}
	if err != nil {
		s.Fatal(err)
	}

	fmt.Printf("%s / %s @ %.3f flits/cycle/node (%d+%d cycles, seed %d)\n",
		res.Arch, p.Name, *rate, *warmup, *cycles, s.Seed)
	fmt.Printf("  packets delivered : %d\n", res.Packets)
	fmt.Printf("  avg latency       : %.1f cycles (network %.1f)\n", res.AvgLatency, res.AvgNetLatency)
	fmt.Printf("  p99 / max latency : %.0f / %d cycles\n", res.P99Latency, res.MaxLatency)
	fmt.Printf("  accepted rate     : %.4f flits/cycle/node (%.3f total)\n",
		res.TotalRate/float64(mesh.N()), res.TotalRate)
	if res.Arch == core.ArchLOFT {
		fmt.Printf("  spec forwards     : %d, local resets: %d, drops: %d\n",
			res.SpecForward, res.Resets, res.Drops)
	} else {
		fmt.Printf("  source-queue drops: %d\n", res.Drops)
	}
	if s.Plan != nil {
		fmt.Printf("  faults injected   : %d (%d flits lost, %d retried)\n",
			res.FaultsInjected, res.FlitsLost, res.Retries)
	}
	if *heatmap {
		fmt.Println("link utilization (digits = tenths; right = East link, below = South link):")
		fmt.Print(net.Heatmap())
	}
	err = s.Export(func() trace.Manifest {
		return newManifest(s, a, p.Name, lcfg, run, []uint64{s.Seed},
			runio.Metrics(&res, s.Probe, s.Audit, s.Perf, uint64(lcfg.QuantumFlits)))
	})
	if err != nil {
		s.Fatal(err)
	}
	if *verbose {
		for _, id := range det.Keys(res.FlowRate) {
			f := p.Flows[id]
			fmt.Printf("  flow %2d %2d->%2d : %.5f flits/cycle, %.1f cycles\n",
				id, f.Src, f.Dst, res.FlowRate[f.ID], res.FlowLatency[f.ID])
		}
	}
	os.Exit(s.Finish())
}

// runSeeds fans n runs with consecutive seeds across the sweep worker pool
// and prints per-seed plus aggregate statistics. Runs share the (read-only)
// pattern; each owns its network and RNGs, so the output is independent of
// the worker count.
func runSeeds(s *runio.Session, arch core.Arch, lcfg config.LOFT, p *traffic.Pattern, run core.RunSpec, n int, rate float64) error {
	workers := s.Workers
	if s.Observed() {
		workers = 1 // runs share one probe/auditor/monitor: keep them sequential
	}
	results, err := sweep.Run(workers, n, func(i int) (core.Result, error) {
		spec := run
		spec.Seed = run.Seed + uint64(i)
		return core.Run(arch, lcfg, p, spec)
	})
	if err != nil {
		return err
	}
	nodes := float64(lcfg.Mesh().N())
	fmt.Printf("%s / %s @ %.3f flits/cycle/node (%d+%d cycles, %d seeds from %d, -j %d)\n",
		results[0].Arch, p.Name, rate, run.Warmup, run.Measure, n, run.Seed, sweep.Workers(workers))
	var lats, rates []float64
	seedList := make([]uint64, n)
	for i, r := range results {
		seedList[i] = run.Seed + uint64(i)
		fmt.Printf("  seed %-4d: avg latency %8.1f cycles, accepted %.4f flits/cycle/node\n",
			seedList[i], r.AvgLatency, r.TotalRate/nodes)
		lats = append(lats, r.AvgLatency)
		rates = append(rates, r.TotalRate/nodes)
	}
	ls, rs := stats.Summarize(lats), stats.Summarize(rates)
	fmt.Printf("  aggregate : latency %.1f ±%.1f%%, accepted %.4f ±%.1f%% (n=%d)\n",
		ls.Avg, ls.Stdev*100, rs.Avg, rs.Stdev*100, ls.N)
	return s.Export(func() trace.Manifest {
		// Aggregate metrics: the per-seed probe/audit/perf layers are shared,
		// the headline result metrics are the cross-seed means.
		metrics := runio.Metrics(nil, run.Probe, run.Audit, run.Perf, uint64(lcfg.QuantumFlits))
		metrics["avg_latency_cycles"] = ls.Avg
		metrics["throughput_flits_per_cycle"] = rs.Avg * nodes
		return newManifest(s, arch, p.Name, lcfg, run, seedList, metrics)
	})
}

// newManifest assembles the run manifest recorded next to every exported
// artifact set: the session's provenance plus what this invocation ran.
func newManifest(s *runio.Session, arch core.Arch, pattern string, lcfg config.LOFT, run core.RunSpec, seeds []uint64, metrics map[string]float64) trace.Manifest {
	m := s.Manifest()
	m.Arch = string(arch)
	m.Pattern = pattern
	m.Seeds = seeds
	m.WarmupCycles = run.Warmup
	m.MeasureCycles = run.Measure
	m.MeshK = lcfg.MeshK
	m.Nodes = lcfg.Mesh().N()
	m.Config = &lcfg
	m.Metrics = metrics
	return m
}
