package runio

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync/atomic"

	"loft/internal/audit"
	"loft/internal/fault"
	"loft/internal/perfmon"
	"loft/internal/probe"
	"loft/internal/profiles"
	"loft/internal/runenv"
	"loft/internal/trace"
)

// Session is what loftsim and loftexp have in common from flag parsing to
// exit code: the seed, fault, observer, execution and profiling flags, the
// observers built from them, the SIGINT handler, the artifact export and the
// audit verdict. A CLI registers the shared flags next to its own, then
// calls Load, Start, Export and Finish in that order.
type Session struct {
	// Tool names the CLI in error prefixes and manifests.
	Tool string
	// SummaryNote qualifies the probe event summary's heading (a sweep's
	// summary covers all its runs).
	SummaryNote string

	// Flag values.
	Seed    uint64
	Workers int    // -j as given; JSet tells an explicit 0 from the default
	Out     string // -out: the run directory, "" when none is written
	JSet    bool

	faultSpec                string
	probeOn, auditOn, perfOn bool
	probeSample, perfSample  uint64
	probeEvents              int
	cpuProfile, memProfile   string

	// Plan is the loaded -fault plan (Load); the observers are built by
	// Start. Each is nil when its flags are off.
	Plan  *fault.Plan
	Probe *probe.Probe
	Audit *audit.Auditor
	Perf  *perfmon.Monitor

	interrupted  atomic.Bool
	stopProfiles func()
}

// Flags registers the flags both CLIs share on fs.
func (s *Session) Flags(fs *flag.FlagSet) {
	fs.Uint64Var(&s.Seed, "seed", 1, "deterministic traffic seed")
	fs.StringVar(&s.faultSpec, "fault", "", "arm a deterministic fault-injection plan on every run: inline spec or a plan file (see DESIGN.md §16); faulted runs stay byte-reproducible per (plan, seed), GSF runs accept adversary-only plans")
	fs.BoolVar(&s.probeOn, "probe", false, "enable the observability probe layer on every run")
	fs.Uint64Var(&s.probeSample, "probe-sample", 256, "gauge sampling period in cycles (0 disables time series)")
	fs.IntVar(&s.probeEvents, "probe-events", 1<<20, "event ring buffer capacity")
	fs.BoolVar(&s.auditOn, "audit", false, "enable the runtime QoS auditor (invariant checks + delay-bound conformance) on every run; violations exit non-zero")
	fs.BoolVar(&s.perfOn, "perf", false, "enable the in-simulator profiler: per-stage cycle attribution, flamegraph export (never changes results)")
	fs.Uint64Var(&s.perfSample, "perf-sample", perfmon.DefaultSampleEvery, "profile every Nth cycle (1 = every cycle)")
	fs.StringVar(&s.Out, "out", "", "write a run directory here: manifest.json plus the files of each attached observer (-probe: events.jsonl, series.csv, trace.json; -audit: audit.json; -perf: perf.json, perf.folded)")
	fs.IntVar(&s.Workers, "j", 0, "concurrent simulations in a sweep (0 = one per CPU; observed sweeps are forced sequential)")
	fs.StringVar(&s.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&s.memProfile, "memprofile", "", "write a heap profile to this file at exit")
}

// Load finishes flag parsing: it checks that -probe-events and -perf-sample
// are at least 1 and that -out does not name an existing file, loads the
// -fault plan and notes whether -j was given. An error is a usage error
// (exit 2).
func (s *Session) Load(fs *flag.FlagSet) error {
	fs.Visit(func(f *flag.Flag) { s.JSet = s.JSet || f.Name == "j" })
	if s.probeEvents < 1 {
		return fmt.Errorf("-probe-events %d: the event ring needs at least one slot", s.probeEvents)
	}
	if s.perfSample < 1 {
		return fmt.Errorf("-perf-sample %d: profile every Nth cycle with N at least 1 (1 = every cycle)", s.perfSample)
	}
	if st, err := os.Stat(s.Out); err == nil && !st.IsDir() {
		return fmt.Errorf("-out %s is a file; -out names a run directory", s.Out)
	}
	if s.faultSpec == "" {
		return nil
	}
	var err error
	s.Plan, err = fault.Load(s.faultSpec)
	return err
}

// Observed reports whether any observer flag is set. Observed sweeps share
// one observer, so they run sequentially.
func (s *Session) Observed() bool {
	return s.probeOn || s.auditOn || s.perfOn
}

// ValidateExec rejects the execution-flag values both CLIs refuse up front:
// a negative -j, and an explicit -j on an observed sweep, which used to be
// silently forced to one worker. sweeps names what the CLI fans out (""
// when this invocation runs a single simulation).
func ValidateExec(workers int, jSet, observed bool, sweeps string) error {
	if workers < 0 {
		return fmt.Errorf("-j %d is negative; use 0 for one worker per CPU", workers)
	}
	if sweeps != "" && jSet && workers > 1 && observed {
		return fmt.Errorf("-j %d conflicts with -probe/-audit/-perf: observed %s share one observer and run sequentially; drop -j or the observer flags", workers, sweeps)
	}
	return nil
}

// BadUsage reports a usage error and exits 2.
func (s *Session) BadUsage(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", s.Tool, err)
	os.Exit(2)
}

// Fatal reports a runtime error and exits 1.
func (s *Session) Fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// Start builds what the flags ask for: the -cpuprofile/-memprofile
// collectors, the observers and the SIGINT handler.
func (s *Session) Start() error {
	var err error
	if s.stopProfiles, err = profiles.Start(s.cpuProfile, s.memProfile); err != nil {
		return err
	}
	if s.probeOn {
		s.Probe = probe.New(probe.Config{EventCap: s.probeEvents, SampleEvery: s.probeSample})
	}
	if s.auditOn {
		s.Audit = audit.New(audit.Config{})
	}
	if s.perfOn {
		s.Perf = perfmon.New(perfmon.Config{SampleEvery: s.perfSample})
	}
	// SIGINT requests a graceful stop: runs end at the next chunk boundary
	// and every requested artifact is still flushed. A second SIGINT falls
	// back to the default kill.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	go func() {
		<-sig
		s.interrupted.Store(true)
		signal.Stop(sig)
		fmt.Fprintln(os.Stderr, "interrupt: stopping at next chunk boundary, flushing snapshots (^C again to kill)")
	}()
	return nil
}

// Interrupted reports whether SIGINT arrived; it is the Stop poll of every
// run.
func (s *Session) Interrupted() bool { return s.interrupted.Load() }

// Manifest returns the manifest fields every run records the same way:
// tool, command line, environment provenance (from runenv, the only
// sanctioned wall-clock read below the CLIs) and fault plan. The CLI adds
// what it ran.
func (s *Session) Manifest() trace.Manifest {
	env := runenv.Capture()
	return trace.Manifest{
		ManifestVersion: trace.ManifestVersion,
		Tool:            s.Tool,
		Command:         os.Args,
		CreatedUTC:      env.CreatedUTC,
		GitRevision:     env.GitRevision,
		HostCPUs:        env.NumCPU,
		HostGoMaxProcs:  env.GoMaxProcs,
		FaultPlan:       s.Plan.String(),
	}
}

// Export writes what the finished run(s) collected. With -out it writes
// the run directory, whose manifest the manifest function builds; without
// it the probe's per-kind event summary and the perf stage table print to
// stdout. A probe ring that overflowed is warned about on stderr either way.
func (s *Session) Export(manifest func() trace.Manifest) error {
	if s.Probe != nil {
		if d := s.Probe.Tracer().Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "warning: probe ring overwrote %d oldest events; raise -probe-events for a complete trace\n", d)
		}
	}
	if s.Out != "" {
		if err := WriteRunDir(s.Out, s.Probe, s.Audit, s.Perf, manifest()); err != nil {
			return err
		}
		fmt.Println(Describe(s.Out, s.Probe, s.Audit, s.Perf))
		return nil
	}
	if s.Probe != nil {
		fmt.Printf("probe event summary%s:\n", s.SummaryNote)
		for _, line := range s.Probe.Summary() {
			fmt.Printf("  %s\n", line)
		}
	}
	if s.Perf != nil {
		s.Perf.Snapshot().WriteText(os.Stdout)
	}
	return nil
}

// Finish prints the auditor's verdict, stops the profilers and returns the
// process exit code: 130 after SIGINT (the partial artifacts were flushed),
// 1 on audit violations, else 0.
func (s *Session) Finish() int {
	clean := true
	if s.Audit != nil {
		for _, line := range s.Audit.Summary() {
			fmt.Printf("  %s\n", line)
		}
		for _, v := range s.Audit.Violations() {
			fmt.Fprintf(os.Stderr, "audit violation: %s\n", v)
		}
		clean = s.Audit.Err() == nil
	}
	s.stopProfiles()
	switch {
	case s.Interrupted():
		fmt.Fprintln(os.Stderr, "run interrupted; partial artifacts flushed")
		return 130
	case !clean:
		return 1
	}
	return 0
}
