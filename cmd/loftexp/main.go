// Command loftexp regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index) and prints them as text
// tables. -quick trades fidelity for speed; -exp selects one experiment.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"loft/internal/analysis"
	"loft/internal/config"
	"loft/internal/core"
	"loft/internal/det"
	"loft/internal/exp"
	"loft/internal/fault"
	"loft/internal/runio"
	"loft/internal/trace"
)

func main() {
	s := &runio.Session{Tool: "loftexp", SummaryNote: " (all runs combined)"}
	s.Flags(flag.CommandLine)
	var (
		which    = flag.String("exp", "all", "experiment: "+strings.Join(experimentNames(), ", ")+", all")
		quick    = flag.Bool("quick", false, "reduced cycle counts and sweep densities")
		jsonPath = flag.String("json", "", "also write all results as JSON to this file")
	)
	flag.Parse()
	if err := s.Load(flag.CommandLine); err != nil {
		s.BadUsage(err)
	}
	if err := validateExpFlags(*which, s.Workers, s.JSet, s.Observed(), s.Plan); err != nil {
		s.BadUsage(err)
	}
	if err := s.Start(); err != nil {
		s.Fatal(err)
	}

	o := exp.Options{Seed: s.Seed, Quick: *quick, Workers: s.Workers, Probe: s.Probe, Audit: s.Audit, Perf: s.Perf, Stop: s.Interrupted, Fault: s.Plan}
	report := map[string]any{}

	for _, r := range selected(*which) {
		// After SIGINT, in-flight simulations end at the next chunk boundary
		// and later experiments do not start.
		if s.Interrupted() {
			break
		}
		fmt.Printf("==== %s ====\n", r.name)
		data, err := r.run(o)
		if err != nil {
			s.Fatal(fmt.Errorf("%s: %w", r.name, err))
		}
		report[r.name] = data
		fmt.Println()
	}
	if *jsonPath != "" {
		blob, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			s.Fatal(err)
		}
		if err := os.WriteFile(*jsonPath, blob, 0o644); err != nil {
			s.Fatal(err)
		}
		fmt.Printf("wrote JSON report to %s\n", *jsonPath)
	}
	// Experiments mix configurations, so unlike loftsim no single config
	// block is recorded; the experiment name takes the pattern slot.
	err := s.Export(func() trace.Manifest {
		m := s.Manifest()
		m.Pattern = *which
		m.Seeds = []uint64{s.Seed}
		m.Metrics = runio.Metrics(nil, s.Probe, s.Audit, s.Perf, uint64(config.PaperLOFT().QuantumFlits))
		return m
	})
	if err != nil {
		s.Fatal(err)
	}
	os.Exit(s.Finish())
}

// faultUse says which fault plans an experiment takes.
type faultUse int

const (
	faultNone      faultUse = iota // no simulation a plan applies to; runs clean under all
	faultAdversary                 // also simulates GSF, which accepts adversary events only
	faultAny                       // simulates LOFT only
)

// experiment is one -exp value: its runner and the fault plans it takes.
type experiment struct {
	name  string
	run   func(exp.Options) (any, error)
	fault faultUse
}

// experiments is the one list of -exp names, in the order all runs them.
var experiments = []experiment{
	{"fig6", fig6, faultNone},
	{"fig10", fig10, faultAny},
	{"fig11a", func(o exp.Options) (any, error) { return fig11("uniform", o) }, faultAdversary},
	{"fig11b", func(o exp.Options) (any, error) { return fig11("hotspot", o) }, faultAdversary},
	{"fig12", fig12, faultAdversary},
	{"fig13", fig13, faultAdversary},
	{"table2", func(exp.Options) (any, error) { return table2() }, faultNone},
	{"bounds", bounds, faultAdversary},
	{"areapower", func(exp.Options) (any, error) { return areaPower() }, faultNone},
	{"ablation", ablation, faultNone},
}

// experimentNames lists the experiment names in run order.
func experimentNames() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return names
}

// namesTaking lists, in run order, the experiments that take plans as use
// says.
func namesTaking(use faultUse) []string {
	var names []string
	for _, e := range experiments {
		if e.fault == use {
			names = append(names, e.name)
		}
	}
	return names
}

// selected returns the experiments which names: all of them for "all", the
// named one, or none for an unknown name.
func selected(which string) []experiment {
	if which == "all" {
		return experiments
	}
	for i, e := range experiments {
		if e.name == which {
			return experiments[i : i+1]
		}
	}
	return nil
}

// validateExpFlags rejects flag combinations up front that would otherwise
// fail mid-sweep or be silently ignored: an unknown -exp used to surface only
// after the profilers had started and a link-level fault plan would abort a
// GSF run halfway through an experiment. The execution-flag rules are the
// session's (runio.ValidateExec). Callers report the error and exit 2.
func validateExpFlags(which string, workers int, jSet, observed bool, plan *fault.Plan) error {
	sel := selected(which)
	if sel == nil {
		return fmt.Errorf("unknown experiment %q (want all or one of %s)", which, strings.Join(experimentNames(), ", "))
	}
	if err := runio.ValidateExec(workers, jSet, observed, "sweeps"); err != nil {
		return err
	}
	if plan == nil {
		return nil
	}
	takes := false
	for _, e := range sel {
		switch e.fault {
		case faultAdversary:
			if !plan.Adversarial() {
				return fmt.Errorf("fault plan %q uses link-level faults, but %q also simulates the GSF baseline, which accepts adversary events only; use -exp %s or an adversary-only plan", plan, which, strings.Join(namesTaking(faultAny), ", "))
			}
			takes = true
		case faultAny:
			takes = true
		}
	}
	if !takes {
		return fmt.Errorf("-fault has no effect on %q: it runs no network simulation a fault plan applies to", which)
	}
	return nil
}

func fig6(exp.Options) (any, error) {
	fmt.Println("Fig 6: flow-control comparison (4 packets x 4 flits over one link,")
	fmt.Println("4-flit downstream buffer close to full, 1-cycle credit turn-around)")
	rows := exp.Fig6FlowControl()
	for _, r := range rows {
		fmt.Printf("  %s\n", r)
	}
	return rows, nil
}

func fig10(o exp.Options) (any, error) {
	byAlloc, err := exp.Fig10All(o)
	if err != nil {
		return nil, err
	}
	all := map[string][]exp.FairnessRow{}
	for _, alloc := range []exp.Allocation{exp.AllocEqual, exp.AllocDiff4, exp.AllocDiff2} {
		rows := byAlloc[alloc]
		all[string(alloc)] = rows
		fmt.Printf("Fig 10 (%s): hotspot throughput fairness (flits/cycle/node)\n", alloc)
		fmt.Printf("  %-6s %8s %8s %8s %8s %6s\n", "region", "MAX", "MIN", "AVG", "STDEV%", "flows")
		for _, r := range rows {
			fmt.Printf("  %-6s %8.4f %8.4f %8.4f %7.1f%% %6d\n", r.Region, r.Max, r.Min, r.Avg, r.StdevPct, r.Flows)
		}
	}
	return all, nil
}

func fig11(pattern string, o exp.Options) (any, error) {
	res, err := exp.Fig11(pattern, o)
	if err != nil {
		return nil, err
	}
	fmt.Printf("Fig 11 (%s): avg network packet latency (cycles) by offered load\n", pattern)
	fmt.Printf("  %-7s", "load")
	for _, a := range res.Archs {
		fmt.Printf(" %13s", a)
	}
	fmt.Println()
	for _, pt := range res.Points {
		fmt.Printf("  %-7.3f", pt.Load)
		for _, a := range res.Archs {
			fmt.Printf(" %13.1f", pt.Latency[a])
		}
		fmt.Println()
	}
	fmt.Printf("accepted throughput (flits/cycle/node) by offered load\n")
	for _, pt := range res.Points {
		fmt.Printf("  %-7.3f", pt.Load)
		for _, a := range res.Archs {
			fmt.Printf(" %13.4f", pt.Throughput[a])
		}
		fmt.Println()
	}
	fmt.Println("saturation throughput normalized to GSF:")
	for _, a := range det.Keys(res.SaturationThroughput) {
		fmt.Printf("  %-14s %.3f\n", a, res.SaturationThroughput[a])
	}
	return res, nil
}

func fig12(o exp.Options) (any, error) {
	all := map[string][]exp.CaseIRow{}
	for _, arch := range []core.Arch{core.ArchGSF, core.ArchLOFT} {
		rows, err := exp.Fig12CaseI(arch, o)
		if err != nil {
			return nil, err
		}
		all[string(arch)] = rows
		fmt.Printf("Fig 12 (%s): Case Study I — DoS aggressors vs regulated victim\n", strings.ToUpper(string(arch)))
		fmt.Printf("  %-8s | %-28s | %-28s | %s\n", "agg rate", "avg latency v/a48/a56 (cyc)", "throughput v/a48/a56 (f/c)", "aggregate")
		for _, r := range rows {
			fmt.Printf("  %-8.2f | %8.1f %8.1f %8.1f | %8.4f %8.4f %8.4f | %.4f\n",
				r.AggressorRate,
				r.Latency[0], r.Latency[1], r.Latency[2],
				r.Throughput[0], r.Throughput[1], r.Throughput[2],
				r.Aggregate)
		}
	}
	return all, nil
}

func fig13(o exp.Options) (any, error) {
	all := map[string][]exp.CaseIIRow{}
	for _, arch := range []core.Arch{core.ArchGSF, core.ArchLOFT} {
		rows, err := exp.Fig13CaseII(arch, o)
		if err != nil {
			return nil, err
		}
		all[string(arch)] = rows
		fmt.Printf("Fig 13 (%s): Case Study II — pathological pattern of Fig 1\n", strings.ToUpper(string(arch)))
		fmt.Printf("  %-9s %12s %12s\n", "inj rate", "grey (f/c)", "stripped")
		for _, r := range rows {
			fmt.Printf("  %-9.2f %12.4f %12.4f\n", r.Rate, r.Grey, r.Stripped)
		}
	}
	return all, nil
}

func table2() (any, error) {
	g := analysis.GSFStorage(config.PaperGSF(), 64)
	l := analysis.LOFTStorage(config.PaperLOFT())
	fmt.Println("Table 2: per-router storage requirements (bits)")
	fmt.Printf("  GSF : source queue %d, VCs %d, flow state %d — total %d\n",
		g.SourceQueue, g.VirtualChannels, g.FlowState, g.Total)
	fmt.Printf("  LOFT: input buf %d, reserv tables %d, flow state %d, LA net %d — total %d\n",
		l.InputBuffers, l.ReservationTables, l.FlowState, l.LookaheadNetwork, l.Total)
	fmt.Printf("  LOFT saves %.1f%% storage over GSF\n", 100*(1-float64(l.Total)/float64(g.Total)))
	return map[string]any{"gsf": g, "loft": l}, nil
}

func bounds(o exp.Options) (any, error) {
	rows, err := exp.DelayBounds(o)
	if err != nil {
		return nil, err
	}
	fmt.Println("Delay bounds (§5.3.1): analytical worst case vs observed maximum")
	for _, r := range rows {
		fmt.Printf("  %-5s hops=%2d bound=%6d cycles, observed max=%6d, holds=%v\n",
			r.Arch, r.Hops, r.BoundCycles, r.MaxObserved, r.Holds)
	}
	return rows, nil
}

func areaPower() (any, error) {
	ap := analysis.EstimateAreaPower(config.PaperLOFT())
	fmt.Println("Area/power estimate (§5.3.2, first-order storage model):")
	fmt.Printf("  64-node LOFT NoC: %.1f mm² (%.0f%% of a 64-core CMP die), %.1f W (%.0f%% of chip power)\n",
		ap.AreaMM2, ap.ChipAreaFrac*100, ap.PowerW, ap.ChipPowerFrac*100)
	return ap, nil
}

func ablation(o exp.Options) (any, error) {
	rows, err := exp.Ablations(o)
	if err != nil {
		return nil, err
	}
	fmt.Println("Ablations: one knob per study, the paper's configuration otherwise")
	fmt.Printf("  %-7s %-13s %10s %8s %9s %9s %6s\n", "study", "variant", "accepted", "total", "latency", "net lat", "drops")
	none := false
	for _, r := range rows {
		lat, net := fmt.Sprintf("%9.2f", r.Latency), fmt.Sprintf("%9.2f", r.NetLatency)
		if r.Packets == 0 {
			lat, net, none = fmt.Sprintf("%9s", "n/a"), fmt.Sprintf("%9s", "n/a"), true
		}
		fmt.Printf("  %-7s %-13s %10.4f %8.4f %s %s %6d\n", r.Study, r.Variant, r.Accepted, r.Total, lat, net, r.Drops)
	}
	fmt.Println("  (accepted in flits/cycle/node, total in flits/cycle, latencies in cycles)")
	if none {
		fmt.Println("  (n/a: the run delivered no packet created after warm-up)")
	}
	return rows, nil
}
