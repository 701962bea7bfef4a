package main

import (
	"math"
	"strings"
	"testing"

	"loft/internal/fault"
)

func mustPlan(t *testing.T, spec string) *fault.Plan {
	t.Helper()
	p, err := fault.Parse(spec)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	return p
}

// base returns a flag set that passes validation; each test case mutates one
// aspect of it.
func base() cliFlags {
	return cliFlags{Arch: "loft", Pattern: "uniform", Rate: 0.1, Cycles: 20000, Spec: 12, Seeds: 1}
}

// TestValidateFlagsAccepts pins combinations that must keep working: the
// defaults, every synthetic pattern, trace replay with link-level faults,
// gsf with an adversary-only plan, and observed sweeps without an explicit
// -j.
func TestValidateFlagsAccepts(t *testing.T) {
	linkPlan := mustPlan(t, "link-down node=7 dir=south from=100 to=200")
	advPlan := mustPlan(t, "adversary flow=1 factor=2 from=100")
	cases := map[string]cliFlags{
		"defaults": base(),
		"gsf":      func() cliFlags { f := base(); f.Arch = "gsf"; return f }(),
		"trace replay ignores pattern": func() cliFlags {
			f := base()
			f.Trace = "x.trace"
			f.Pattern = "nonsense"
			return f
		}(),
		"gentrace ignores pattern": func() cliFlags {
			f := base()
			f.GenTrace = 100
			f.Pattern = "nonsense"
			return f
		}(),
		"link faults on loft": func() cliFlags { f := base(); f.Plan = linkPlan; return f }(),
		"link faults on trace replay": func() cliFlags {
			f := base()
			f.Trace = "x.trace"
			f.Plan = linkPlan
			return f
		}(),
		"adversary plan on gsf": func() cliFlags {
			f := base()
			f.Arch = "gsf"
			f.Plan = advPlan
			return f
		}(),
		"observed sweep with default -j": func() cliFlags {
			f := base()
			f.Seeds = 4
			f.Observed = true
			return f
		}(),
		"spec 0 disables speculation": func() cliFlags { f := base(); f.Spec = 0; return f }(),
		"-v and -heatmap on a single run": func() cliFlags {
			f := base()
			f.Verbose = true
			f.Heatmap = true
			return f
		}(),
		"explicit -j sweep without observers": func() cliFlags {
			f := base()
			f.Seeds = 4
			f.Workers = 8
			f.JSet = true
			return f
		}(),
	}
	for name, f := range cases {
		if err := validateFlags(f); err != nil {
			t.Errorf("%s: unexpected error: %v", name, err)
		}
	}
	for _, pat := range []string{"uniform", "hotspot", "case1", "case2", "neighbor", "transpose"} {
		f := base()
		f.Pattern = pat
		if err := validateFlags(f); err != nil {
			t.Errorf("pattern %s: unexpected error: %v", pat, err)
		}
	}
}

// TestValidateFlagsRejects pins the up-front conflict detection: each bad
// combination must produce an error mentioning the offending flag, where it
// previously failed deep in the run or was silently ignored.
func TestValidateFlagsRejects(t *testing.T) {
	linkPlan := mustPlan(t, "link-down node=7 dir=south from=100 to=200")
	advPlan := mustPlan(t, "adversary flow=1 factor=2 from=100")
	cases := []struct {
		name string
		mut  func(*cliFlags)
		want string
	}{
		{"unknown arch", func(f *cliFlags) { f.Arch = "mesh" }, "unknown architecture"},
		{"unknown pattern", func(f *cliFlags) { f.Pattern = "tornado" }, "unknown pattern"},
		{"negative rate", func(f *cliFlags) { f.Rate = -0.1 }, "-rate"},
		{"NaN rate", func(f *cliFlags) { f.Rate = math.NaN() }, "-rate NaN"},
		{"infinite rate", func(f *cliFlags) { f.Rate = math.Inf(1) }, "-rate +Inf"},
		{"zero cycles", func(f *cliFlags) { f.Cycles = 0 }, "-cycles 0"},
		{"negative gentrace", func(f *cliFlags) { f.GenTrace = -1 }, "-gentrace"},
		{"negative spec", func(f *cliFlags) { f.Spec = -3 }, "-spec -3: config: negative speculative buffer"},
		{"odd spec", func(f *cliFlags) { f.Spec = 3 }, "-spec 3: config: speculative buffer 3 not a quantum multiple"},
		{"one-flit spec", func(f *cliFlags) { f.Spec = 1 }, "-spec 1: config: speculative buffer 1 not a quantum multiple"},
		{"zero seeds", func(f *cliFlags) { f.Seeds = 0 }, "-seeds"},
		{"-v on a seed sweep", func(f *cliFlags) { f.Seeds = 2; f.Verbose = true }, "-v has no effect"},
		{"-heatmap on a seed sweep", func(f *cliFlags) { f.Seeds = 2; f.Heatmap = true }, "-heatmap has no effect"},
		{"negative j", func(f *cliFlags) { f.Workers = -1 }, "-j -1"},
		{"gentrace with trace", func(f *cliFlags) { f.GenTrace = 10; f.Trace = "x.trace" }, "conflict"},
		{"fault with gentrace", func(f *cliFlags) { f.GenTrace = 10; f.Plan = linkPlan }, "-fault has no effect"},
		{"link faults on gsf", func(f *cliFlags) { f.Arch = "gsf"; f.Plan = linkPlan }, "adversary events only"},
		{"adversary on trace replay", func(f *cliFlags) { f.Trace = "x.trace"; f.Plan = advPlan }, "trace"},
		{
			"explicit -j on observed sweep",
			func(f *cliFlags) { f.Seeds = 4; f.Workers = 8; f.JSet = true; f.Observed = true },
			"run sequentially",
		},
	}
	for _, tc := range cases {
		f := base()
		tc.mut(&f)
		err := validateFlags(f)
		if err == nil {
			t.Errorf("%s: expected an error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}
