// Package exp reproduces every table and figure of the paper's evaluation
// (§5–§6). Each experiment has one runner returning the same rows/series the
// paper reports, and Ablations runs the studies beyond the paper; cmd/loftexp
// renders them as text tables. EXPERIMENTS.md records paper-vs-measured
// values.
package exp

import (
	"fmt"

	"loft/internal/audit"
	"loft/internal/config"
	"loft/internal/core"
	"loft/internal/fault"
	"loft/internal/perfmon"
	"loft/internal/probe"
	"loft/internal/sweep"
)

// Options tune experiment runs.
type Options struct {
	// Seed drives all traffic deterministically.
	Seed uint64
	// Quick reduces cycle counts and sweep densities for tests and the
	// benchmark.
	Quick bool
	// Workers bounds the number of simulations an experiment runs
	// concurrently; <= 0 selects GOMAXPROCS. Every run owns its RNGs,
	// pattern state, and network, so results are identical whatever the
	// worker count (the cmd-level -j flag lands here).
	Workers int
	// Probe attaches the observability layer to every simulation the
	// experiment runs. Runs reuse one probe, so events of consecutive
	// simulations interleave in the trace (each run restarts at cycle 0);
	// combine with a single-experiment selection for a readable trace. A
	// run's gauges are sampled only while it runs, so the sweep's
	// series.csv holds one block per run for each series name.
	Probe *probe.Probe
	// Audit attaches the runtime QoS auditor to every simulation the
	// experiment runs. Like Probe, all runs share the one auditor, so
	// audited experiments are forced sequential; violations accumulate
	// across runs and the caller checks Audit.Err() at the end.
	Audit *audit.Auditor
	// Perf attaches the self-profiler to every simulation the experiment
	// runs. Like Probe/Audit, all runs share the one monitor, so profiled
	// experiments are forced sequential; stage attribution accumulates
	// across the sweep.
	Perf *perfmon.Monitor
	// Stop, when non-nil, is polled between simulation chunks; once it
	// returns true the current run ends early at a chunk boundary (the
	// cmd-level SIGINT handler lands here).
	Stop func() bool
	// Fault arms the same deterministic fault-injection plan on every
	// simulation the experiment runs (the cmd-level -fault flag lands
	// here). GSF runs accept adversary-only plans; experiments that mix
	// architectures must restrict their plans accordingly.
	Fault *fault.Plan
	// Progress, when non-nil, is called after every finished simulation
	// with (done, total) for that experiment's sweep. It must be safe for
	// concurrent use (parallel sweeps call it from worker goroutines).
	Progress func(done, total int)
}

// workers resolves the effective worker count. Probe, audit and perf runs
// are forced sequential: all runs share one probe/auditor/monitor, which is
// neither safe nor readable under concurrent emission.
func (o Options) workers() int {
	if o.Probe != nil || o.Audit != nil || o.Perf != nil {
		return 1
	}
	return sweep.Workers(o.Workers)
}

// sweepOpts translates Options into sweep.Run options.
func (o Options) sweepOpts() []sweep.Option {
	if o.Progress == nil {
		return nil
	}
	return []sweep.Option{sweep.WithProgress(o.Progress)}
}

// runSpec returns the RunSpec for the chosen fidelity.
func (o Options) runSpec() core.RunSpec {
	if o.Quick {
		return core.RunSpec{Seed: o.Seed, Warmup: 2000, Measure: 6000, Probe: o.Probe, Audit: o.Audit, Perf: o.Perf, Stop: o.Stop, Fault: o.Fault}
	}
	return core.RunSpec{Seed: o.Seed, Warmup: 5000, Measure: 20000, Probe: o.Probe, Audit: o.Audit, Perf: o.Perf, Stop: o.Stop, Fault: o.Fault}
}

// loftCfg returns the paper LOFT configuration with the given speculative
// buffer size.
func loftCfg(spec int) config.LOFT { return config.PaperLOFTSpec(spec) }

// gsfCfg returns the paper GSF configuration.
func gsfCfg() config.GSF { return config.PaperGSF() }

// archLabel names a simulated architecture in result tables.
func archLabel(arch core.Arch, spec int) string {
	if arch == core.ArchGSF {
		return "GSF"
	}
	return fmt.Sprintf("LOFT spec=%d", spec)
}
