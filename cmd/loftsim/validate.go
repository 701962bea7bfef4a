package main

import (
	"fmt"
	"math"

	"loft/internal/config"
	"loft/internal/fault"
	"loft/internal/runio"
)

// knownPatterns lists the synthetic patterns -pattern accepts.
var knownPatterns = map[string]bool{
	"uniform":   true,
	"hotspot":   true,
	"case1":     true,
	"case2":     true,
	"neighbor":  true,
	"transpose": true,
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
	if f.Trace == "" && f.GenTrace <= 0 && !knownPatterns[f.Pattern] {
		return fmt.Errorf("unknown pattern %q (want uniform, hotspot, case1, case2, neighbor or transpose)", f.Pattern)
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
