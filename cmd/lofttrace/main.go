// Command lofttrace analyses the run directories the simulators write with
// -out DIR: it summarizes the run manifest and the probe event dump,
// decomposes per-quantum latency into its mechanism components, renders
// perfmon self-profiles, and diffs runs against each other with regression
// thresholds. Every argument is a run directory; a file is a usage error.
//
//	lofttrace summary   <run-dir>
//	lofttrace decompose [-flow N] [-json] <run-dir>
//	lofttrace perf      [-json] <run-dir>
//	lofttrace diff      [-threshold PCT] [-all] [-json] <base-dir> <new-dir>
//
// decompose reads events.jsonl, which only a -probe run writes; its slot
// length is the manifest's QuantumFlits, else the paper configuration's.
// perf renders the stage-attribution table and per-worker shard-utilization
// report from perf.json, which only a -perf run writes.
//
// diff compares the two manifests' metrics, perf metrics included. It exits
// 1 when a direction-aware metric regressed beyond the threshold, so it
// gates CI; a run diffed against itself reports zero changed metrics and
// exits 0.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"

	"loft/internal/config"
	"loft/internal/det"
	"loft/internal/fault"
	"loft/internal/perfmon"
	"loft/internal/probe"
	"loft/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	var err error
	code := 0
	switch args[0] {
	case "summary":
		code, err = cmdSummary(args[1:], stdout, stderr)
	case "decompose":
		code, err = cmdDecompose(args[1:], stdout, stderr)
	case "perf":
		code, err = cmdPerf(args[1:], stdout, stderr)
	case "diff":
		code, err = cmdDiff(args[1:], stdout, stderr)
	case "-h", "-help", "--help", "help":
		usage(stdout)
	default:
		fmt.Fprintf(stderr, "lofttrace: unknown subcommand %q\n", args[0])
		usage(stderr)
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "lofttrace %s: %v\n", args[0], err)
		return 2
	}
	return code
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage:
  lofttrace summary   <run-dir>
  lofttrace decompose [-flow N] [-json] <run-dir>
  lofttrace perf      [-json] <run-dir>
  lofttrace diff      [-threshold PCT] [-all] [-json] <base-dir> <new-dir>
`)
}

// runDirs checks that every target is a run directory, the only input
// lofttrace reads.
func runDirs(targets ...string) error {
	for _, t := range targets {
		st, err := os.Stat(t)
		if err != nil {
			return err
		}
		if !st.IsDir() {
			return fmt.Errorf("%s is a file; lofttrace reads run directories (loftsim/loftexp -out DIR)", t)
		}
	}
	return nil
}

// runFile returns the path of one observer's file in run directory dir, or
// an error naming the observer flag the run was started without.
func runFile(dir, name, observer string) (string, error) {
	path := filepath.Join(dir, name)
	if _, err := os.Stat(path); err != nil {
		return "", fmt.Errorf("%s has no %s: the run had no %s", dir, name, observer)
	}
	return path, nil
}

// oneRunDir returns the single run directory argument of a parsed
// subcommand.
func oneRunDir(fs *flag.FlagSet) (string, error) {
	if fs.NArg() != 1 {
		return "", fmt.Errorf("expected one run directory, got %d arguments", fs.NArg())
	}
	return fs.Arg(0), runDirs(fs.Arg(0))
}

func cmdSummary(args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("summary", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2, nil
	}
	dir, err := oneRunDir(fs)
	if err != nil {
		return 2, err
	}
	m, err := trace.ReadManifest(dir)
	if err != nil {
		return 2, err
	}
	printManifest(stdout, m)
	events := filepath.Join(dir, trace.EventsFile)
	if _, err := os.Stat(events); err != nil {
		return 0, nil
	}
	ev, dropped, err := trace.ReadEventsFile(events)
	if err != nil {
		return 2, err
	}
	printEventSummary(stdout, ev, dropped)
	printFaultTimeline(stdout, ev)
	return 0, nil
}

func printManifest(w io.Writer, m *trace.Manifest) {
	fmt.Fprintf(w, "run manifest (v%d): %s\n", m.ManifestVersion, m.Tool)
	if m.Arch != "" || m.Pattern != "" {
		fmt.Fprintf(w, "  arch/pattern : %s / %s\n", m.Arch, m.Pattern)
	}
	if len(m.Seeds) > 0 {
		fmt.Fprintf(w, "  seeds        : %v\n", m.Seeds)
	}
	if m.WarmupCycles+m.MeasureCycles > 0 {
		fmt.Fprintf(w, "  cycles       : %d warmup + %d measured\n", m.WarmupCycles, m.MeasureCycles)
	}
	if m.Nodes > 0 {
		fmt.Fprintf(w, "  topology     : %dx%d mesh (%d nodes)\n", m.MeshK, m.MeshK, m.Nodes)
	}
	if m.CreatedUTC != "" {
		fmt.Fprintf(w, "  created      : %s\n", m.CreatedUTC)
	}
	if m.GitRevision != "" {
		fmt.Fprintf(w, "  git revision : %s\n", m.GitRevision)
	}
	if m.HostCPUs > 0 {
		fmt.Fprintf(w, "  host         : %d CPUs, GOMAXPROCS %d\n", m.HostCPUs, m.HostGoMaxProcs)
	}
	if m.FaultPlan != "" {
		fmt.Fprintf(w, "  fault plan   : %s\n", m.FaultPlan)
	}
	for _, a := range m.Artifacts {
		fmt.Fprintf(w, "  artifact     : %-14s %8d bytes  sha256 %.12s…\n", a.Name, a.Bytes, a.SHA256)
	}
	if len(m.Metrics) > 0 {
		fmt.Fprintf(w, "  metrics:\n")
		for _, k := range det.Keys(m.Metrics) {
			fmt.Fprintf(w, "    %-34s %g\n", k, m.Metrics[k])
		}
	}
}

func printEventSummary(w io.Writer, ev []probe.Event, dropped uint64) {
	fmt.Fprintf(w, "events: %d retained", len(ev))
	if dropped > 0 {
		fmt.Fprintf(w, " (+%d dropped by the ring; tail only)", dropped)
	}
	if len(ev) > 0 {
		fmt.Fprintf(w, ", cycles %d..%d", ev[0].Cycle, ev[len(ev)-1].Cycle)
	}
	fmt.Fprintln(w)
	counts := make(map[string]uint64)
	for _, e := range ev {
		counts[e.Kind.String()]++
	}
	for _, k := range det.Keys(counts) {
		fmt.Fprintf(w, "  %-16s %d\n", k, counts[k])
	}
}

// printFaultTimeline renders the chaos record of a faulted run: every fault
// window edge in stream order, then per-node denial/retry totals, so a chaos
// run decomposes like a clean one. Clean runs print nothing.
func printFaultTimeline(w io.Writer, ev []probe.Event) {
	type nodeCounts struct{ denials, flits, retries uint64 }
	var edges []probe.Event
	counts := map[int32]*nodeCounts{}
	at := func(node int32) *nodeCounts {
		c := counts[node]
		if c == nil {
			c = &nodeCounts{}
			counts[node] = c
		}
		return c
	}
	for _, e := range ev {
		switch e.Kind {
		case probe.KindFaultDown, probe.KindFaultUp:
			edges = append(edges, e)
		case probe.KindFaultLoss:
			c := at(e.Node)
			c.denials++
			c.flits += e.Arg
		case probe.KindFaultRetry:
			at(e.Node).retries++
		}
	}
	if len(edges) == 0 && len(counts) == 0 {
		return
	}
	fmt.Fprintf(w, "fault timeline: %d window edges\n", len(edges))
	for _, e := range edges {
		verb := "down"
		if e.Kind == probe.KindFaultUp {
			verb = "up"
		}
		target := fmt.Sprintf("node %d", e.Node)
		if e.Flow >= 0 {
			target = fmt.Sprintf("flow %d (node %d)", e.Flow, e.Node)
		}
		if e.Loc >= 0 {
			target += " " + fault.DirName(int(e.Loc))
		}
		window := "open-ended"
		if e.Arg > 0 {
			window = fmt.Sprintf("until %d", e.Arg)
		}
		fmt.Fprintf(w, "  @%-8d %-4s %-12s %s (%s)\n", e.Cycle, verb, fault.Kind(e.Seq), target, window)
	}
	for _, node := range det.Keys(counts) {
		c := counts[node]
		fmt.Fprintf(w, "  node %3d: %d forwards denied (%d flits), %d retried\n",
			node, c.denials, c.flits, c.retries)
	}
}

func cmdDecompose(args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("decompose", flag.ContinueOnError)
	fs.SetOutput(stderr)
	flow := fs.Int("flow", -1, "restrict the per-flow table to this flow id")
	asJSON := fs.Bool("json", false, "emit the report as JSON")
	if err := fs.Parse(args); err != nil {
		return 2, nil
	}
	dir, err := oneRunDir(fs)
	if err != nil {
		return 2, err
	}
	events, err := runFile(dir, trace.EventsFile, "-probe")
	if err != nil {
		return 2, err
	}
	ev, dropped, err := trace.ReadEventsFile(events)
	if err != nil {
		return 2, err
	}
	// The slot length is the run's quantum; the paper configuration's when
	// there is no manifest or it has no config block (loftexp runs).
	slotCycles := uint64(config.PaperLOFT().QuantumFlits)
	if m, err := trace.ReadManifest(dir); err == nil && m.Config != nil && m.Config.QuantumFlits > 0 {
		slotCycles = uint64(m.Config.QuantumFlits)
	} else if err != nil && !errors.Is(err, os.ErrNotExist) {
		return 2, err
	}
	d, err := trace.Decompose(ev, slotCycles, dropped)
	if err != nil {
		return 2, err
	}
	if *flow >= 0 {
		d.PerFlow = slices.DeleteFunc(d.PerFlow, func(f trace.FlowSummary) bool { return f.Flow != int32(*flow) })
	}
	if *asJSON {
		return 0, writeJSON(stdout, d)
	}
	printDecomposition(stdout, d)
	return 0, nil
}

// printDecomposition renders the report -json encodes as text.
func printDecomposition(w io.Writer, d *trace.Decomposition) {
	fmt.Fprintf(w, "decomposition: %d quanta complete, %d incomplete (slot = %d cycles",
		d.Complete, d.Incomplete, d.SlotCycles)
	if d.Dropped > 0 {
		fmt.Fprintf(w, "; ring dropped %d events, stream is the tail", d.Dropped)
	}
	fmt.Fprintln(w, ")")
	for _, e := range d.Errors {
		fmt.Fprintf(w, "  TIMING VIOLATION: %s\n", e)
	}
	if d.Complete == 0 {
		fmt.Fprintln(w, "  no data-path events to decompose (GSF stream, or probe attached without data traffic)")
		return
	}
	s := &d.All
	fmt.Fprintf(w, "all flows: %d quanta, %.1f hops avg, %.1f%% hops speculative\n",
		s.Quanta, s.MeanHops, s.SpecHopPct)
	rows := []struct {
		name string
		c    trace.ComponentStats
	}{
		{"total", s.Total},
		{"booking-wait", s.BookingWait},
		{"serialization", s.Serialization},
		{"lookahead-wait", s.LookaheadWait},
		{"spec-wait", s.SpecWait},
		{"spec-saved*", s.SpecSaved},
	}
	fmt.Fprintf(w, "  %-15s %10s %8s  %s\n", "component", "mean", "max", "histogram (cycles)")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-15s %10.2f %8d  %s\n", r.name, r.c.Mean, r.c.Max, r.c.Hist)
	}
	fmt.Fprintln(w, "  (* spec-saved is informational; the four components above it sum to total)")
	for _, f := range d.PerFlow {
		s := &f.Summary
		fmt.Fprintf(w, "flow %3d: %6d quanta  total %8.2f  book %8.2f  serial %7.2f  lookahead %8.2f  spec %6.2f  (saved %6.2f)\n",
			f.Flow, s.Quanta, s.Total.Mean, s.BookingWait.Mean, s.Serialization.Mean,
			s.LookaheadWait.Mean, s.SpecWait.Mean, s.SpecSaved.Mean)
	}
	if len(d.PerHop) > 0 {
		fmt.Fprintf(w, "per-hop residual wait (hop 0 = first router crossing):\n")
		for _, h := range d.PerHop {
			fmt.Fprintf(w, "  hop %2d: %6d crossings, mean wait %7.2f, max %6d, %5.1f%% speculative\n",
				h.Hop, h.Count, h.MeanWait, h.MaxWait, h.SpecPct)
		}
	}
}

// writeJSON writes v as indented JSON, the form of every -json report.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// cmdPerf renders a run's perfmon snapshot: the stage-attribution table,
// the per-worker shard-utilization report and the gauges.
func cmdPerf(args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	asJSON := fs.Bool("json", false, "emit the snapshot as JSON")
	if err := fs.Parse(args); err != nil {
		return 2, nil
	}
	dir, err := oneRunDir(fs)
	if err != nil {
		return 2, err
	}
	path, err := runFile(dir, trace.PerfFile, "-perf")
	if err != nil {
		return 2, err
	}
	snap, err := perfmon.ReadSnapshot(path)
	if err != nil {
		return 2, err
	}
	if *asJSON {
		return 0, writeJSON(stdout, snap)
	}
	snap.WriteText(stdout)
	return 0, nil
}

func cmdDiff(args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	threshold := fs.Float64("threshold", 2, "relative change (%) beyond which a bad-direction delta is a breach")
	all := fs.Bool("all", false, "print unchanged metrics too")
	asJSON := fs.Bool("json", false, "emit the report as JSON")
	if err := fs.Parse(args); err != nil {
		return 2, nil
	}
	if fs.NArg() != 2 {
		return 2, fmt.Errorf("expected <base-dir> <new-dir>, got %d arguments", fs.NArg())
	}
	if err := checkThreshold(*threshold); err != nil {
		return 2, err
	}
	if err := runDirs(fs.Arg(0), fs.Arg(1)); err != nil {
		return 2, err
	}
	base, err := trace.ReadManifest(fs.Arg(0))
	if err != nil {
		return 2, err
	}
	cur, err := trace.ReadManifest(fs.Arg(1))
	if err != nil {
		return 2, err
	}
	rep, err := trace.DiffManifests(base, cur, fs.Arg(0), fs.Arg(1), *threshold)
	if err != nil {
		return 2, err
	}
	if *asJSON {
		if err := writeJSON(stdout, rep); err != nil {
			return 2, err
		}
	} else {
		fmt.Fprintf(stdout, "diff %s -> %s (threshold %.1f%%)\n", rep.Base, rep.New, rep.ThresholdPct)
		for _, c := range rep.ConfigChanges {
			fmt.Fprintf(stdout, "  config: %s\n", c)
		}
		for _, d := range rep.Deltas {
			if !*all && !d.Changed() {
				continue
			}
			mark := " "
			if d.Breach {
				mark = "!"
			}
			switch d.OnlyIn {
			case "base":
				fmt.Fprintf(stdout, " %s %-34s %12g -> (absent)\n", mark, d.Name, d.Base)
			case "new":
				fmt.Fprintf(stdout, " %s %-34s (absent) -> %g\n", mark, d.Name, d.New)
			default:
				fmt.Fprintf(stdout, " %s %-34s %12g -> %-12g %+7.2f%% (%s)\n",
					mark, d.Name, d.Base, d.New, d.RelPct, d.Direction)
			}
		}
		fmt.Fprintf(stdout, "%d metric(s) changed, %d regression breach(es)\n", rep.Changed, rep.Breaches)
	}
	if rep.Breaches > 0 {
		return 1, nil
	}
	return 0, nil
}

// checkThreshold rejects a -threshold the breach test cannot apply: every
// comparison against NaN is false and none can exceed +Inf, so either would
// pass any regression, and a negative one would flag every change.
func checkThreshold(pct float64) error {
	if math.IsNaN(pct) || math.IsInf(pct, 0) || pct < 0 {
		return fmt.Errorf("-threshold %g must be a finite, non-negative percentage", pct)
	}
	return nil
}
