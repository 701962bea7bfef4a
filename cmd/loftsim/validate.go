package main

import (
	"fmt"
	"math"
	"strings"

	"loft/internal/config"
	"loft/internal/fault"
	"loft/internal/runio"
	"loft/internal/topo"
	"loft/internal/traffic"
)

// patterns is the one table of synthetic patterns: the -pattern help,
// validateFlags' check and pattern construction all read it. Each entry
// builds its pattern on cfg's mesh at offered load rate (the aggressor rate
// for case1).
var patterns = []struct {
	name  string
	build func(cfg config.LOFT, rate float64) (*traffic.Pattern, error)
}{
	{"uniform", onMesh(traffic.Uniform)},
	{"hotspot", func(c config.LOFT, rate float64) (*traffic.Pattern, error) {
		m := c.Mesh()
		return traffic.Hotspot(m, topo.NodeID(m.N()-1), rate, c.PacketFlits, c.FrameFlits, c.QuantumFlits, nil)
	}},
	{"case1", onMesh(func(m topo.Mesh, rate float64, pkt, frame int) *traffic.Pattern {
		return traffic.CaseStudyI(m, 0.2, rate, pkt, frame)
	})},
	{"case2", onMesh(traffic.CaseStudyII)},
	{"neighbor", onMesh(traffic.NearestNeighbor)},
	{"transpose", onMesh(traffic.Transpose)},
}

// onMesh adapts a constructor that cannot fail to the patterns table.
func onMesh(f func(m topo.Mesh, rate float64, pktFlits, frameFlits int) *traffic.Pattern) func(config.LOFT, float64) (*traffic.Pattern, error) {
	return func(c config.LOFT, rate float64) (*traffic.Pattern, error) {
		return f(c.Mesh(), rate, c.PacketFlits, c.FrameFlits), nil
	}
}

// patternNames lists the -pattern values in table order.
func patternNames() string {
	names := make([]string, len(patterns))
	for i, p := range patterns {
		names[i] = p.name
	}
	return strings.Join(names, ", ")
}

// lookupPattern returns the named synthetic pattern's constructor.
func lookupPattern(name string) (func(config.LOFT, float64) (*traffic.Pattern, error), error) {
	for _, p := range patterns {
		if p.name == name {
			return p.build, nil
		}
	}
	return nil, fmt.Errorf("unknown pattern %q (want one of %s)", name, patternNames())
}

// cliFlags carries the parsed flag values validateFlags checks. A plain
// struct (rather than the flag set itself) lets tests cover every conflict
// without re-parsing argv.
type cliFlags struct {
	Arch     string
	Pattern  string
	Trace    string // -trace replay file, "" when synthetic
	GenTrace int
	Rate     float64
	Cycles   uint64 // -cycles, the measured window
	Spec     int    // -spec, the LOFT speculative buffer in flits
	Seeds    int
	Verbose  bool // -v
	Heatmap  bool // -heatmap
	Workers  int  // -j as given
	JSet     bool // -j appeared on the command line
	Observed bool // -probe/-audit/-perf, or any flag implying one
	Plan     *fault.Plan
}

// validateFlags rejects flag combinations up front that would otherwise fail
// deep inside the run or be silently ignored: unknown arch/pattern used to
// surface only after traffic construction, a negative -spec only after the
// profilers had started, and a -fault plan alongside -gentrace, or -v and
// -heatmap alongside -seeds, were dropped without a word, and -cycles 0
// printed an all-zero summary and exited 0. The execution-flag rules are the
// session's (runio.ValidateExec). Callers report the error and exit 2.
func validateFlags(f cliFlags) error {
	if f.Arch != "loft" && f.Arch != "gsf" {
		return fmt.Errorf("unknown architecture %q (want loft or gsf)", f.Arch)
	}
	if f.Trace == "" && f.GenTrace <= 0 {
		if _, err := lookupPattern(f.Pattern); err != nil {
			return err
		}
	}
	if math.IsNaN(f.Rate) || math.IsInf(f.Rate, 0) || f.Rate < 0 {
		return fmt.Errorf("-rate %g must be a finite, non-negative offered load in flits/cycle/node", f.Rate)
	}
	if f.Cycles == 0 {
		return fmt.Errorf("-cycles 0 measures nothing; give the measured window in cycles")
	}
	if f.GenTrace < 0 {
		return fmt.Errorf("-gentrace %d is negative; give the number of packets to generate", f.GenTrace)
	}
	if err := config.PaperLOFTSpec(f.Spec).Validate(); err != nil {
		return fmt.Errorf("-spec %d: %w", f.Spec, err)
	}
	if f.Seeds < 1 {
		return fmt.Errorf("-seeds %d must be at least 1", f.Seeds)
	}
	if f.Seeds > 1 && f.Verbose {
		return fmt.Errorf("-v has no effect with -seeds %d: per-flow rates are printed for a single run only", f.Seeds)
	}
	if f.Seeds > 1 && f.Heatmap {
		return fmt.Errorf("-heatmap has no effect with -seeds %d: the heatmap is printed for a single run only", f.Seeds)
	}
	sweeps := ""
	if f.Seeds > 1 {
		sweeps = "seed sweeps"
	}
	if err := runio.ValidateExec(f.Workers, f.JSet, f.Observed, sweeps); err != nil {
		return err
	}
	if f.GenTrace > 0 && f.Trace != "" {
		return fmt.Errorf("-gentrace and -trace conflict: one writes a trace, the other replays one")
	}
	if f.Plan != nil {
		if f.GenTrace > 0 {
			return fmt.Errorf("-fault has no effect with -gentrace: trace generation runs no simulation")
		}
		if f.Arch == "gsf" && !f.Plan.Adversarial() {
			return fmt.Errorf("fault plan %q uses link-level faults; GSF supports adversary events only", f.Plan)
		}
		if f.Trace != "" && f.Plan.HasAdversary() {
			return fmt.Errorf("adversary faults cannot rate-scale a -trace replay (injections are fixed by the trace); use a synthetic pattern")
		}
	}
	return nil
}
