package main

import (
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

// TestValidateExpFlagsAccepts pins working combinations: every experiment
// name, adversary plans on every experiment that simulates GSF and on all,
// link-level plans on the LOFT-only experiments, and observed runs without
// an explicit -j.
func TestValidateExpFlagsAccepts(t *testing.T) {
	linkPlan := mustPlan(t, "link-down node=7 dir=south from=100 to=200")
	advPlan := mustPlan(t, "adversary flow=1 factor=2 from=100")
	for _, which := range append([]string{"all"}, experimentNames()...) {
		if err := validateExpFlags(which, 0, false, false, nil); err != nil {
			t.Errorf("%s: unexpected error: %v", which, err)
		}
	}
	for _, which := range append([]string{"all"}, namesTaking(faultAdversary)...) {
		if err := validateExpFlags(which, 0, false, false, advPlan); err != nil {
			t.Errorf("adversary plan on %s: %v", which, err)
		}
	}
	for _, which := range namesTaking(faultAny) {
		if err := validateExpFlags(which, 0, false, false, linkPlan); err != nil {
			t.Errorf("link plan on %s: %v", which, err)
		}
	}
	if err := validateExpFlags("all", 0, false, true, nil); err != nil {
		t.Errorf("observed run with default -j: %v", err)
	}
	if err := validateExpFlags("all", 8, true, false, nil); err != nil {
		t.Errorf("explicit -j without observers: %v", err)
	}
}

// rejectCase is one flag combination validateExpFlags must refuse, with a
// phrase its error must contain.
type rejectCase struct {
	name           string
	which          string
	workers        int
	jSet, observed bool
	plan           *fault.Plan
	want           string
}

// TestValidateExpFlagsRejects pins the up-front conflict detection, exit
// code 2 material that previously failed mid-sweep or was silently ignored:
// any plan on an experiment that takes none (ablation among them), and a
// link-level plan on every experiment that simulates GSF and on all.
func TestValidateExpFlagsRejects(t *testing.T) {
	linkPlan := mustPlan(t, "link-down node=7 dir=south from=100 to=200")
	advPlan := mustPlan(t, "adversary flow=1 factor=2 from=100")
	cases := []rejectCase{
		{name: "unknown experiment", which: "fig99", want: "unknown experiment"},
		{name: "negative j", which: "all", workers: -1, want: "-j -1"},
		{name: "link faults on all", which: "all", plan: linkPlan, want: "adversary events only"},
		{name: "adversary plan on ablation", which: "ablation", plan: advPlan, want: "no network simulation"},
		{name: "explicit -j on observed run", which: "all", workers: 8, jSet: true, observed: true, want: "run sequentially"},
	}
	for _, which := range namesTaking(faultNone) {
		cases = append(cases, rejectCase{name: "fault on " + which, which: which, plan: advPlan, want: "no network simulation"})
	}
	for _, which := range namesTaking(faultAdversary) {
		cases = append(cases, rejectCase{name: "link faults on " + which, which: which, plan: linkPlan, want: "adversary events only"})
	}
	for _, tc := range cases {
		err := validateExpFlags(tc.which, tc.workers, tc.jSet, tc.observed, tc.plan)
		if err == nil {
			t.Errorf("%s: expected an error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}
