package lint

import (
	"slices"
	"strings"
	"testing"
)

// TestModule is the determinism gate: every package of this module outside
// the exempt set must be free of findings.
func TestModule(t *testing.T) {
	diags, err := Module(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Error(d)
	}
}

// TestModuleBrokenModule runs Module over a fixture module whose scheduler
// package reads the wall clock.
func TestModuleBrokenModule(t *testing.T) {
	diags, err := Module("testdata/brokenmod")
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || !strings.HasPrefix(diags[0].String(), "internal/lsf/bad.go:9:14: call to time.Now") {
		t.Errorf("want exactly internal/lsf/bad.go:9:14: call to time.Now..., got %v", diags)
	}
}

// TestExemptionsEarned fails on an exemption that no longer exempts
// anything: every exempt package must still produce a finding, so a stale
// or renamed entry cannot silently widen the exempt set's reach.
func TestExemptionsEarned(t *testing.T) {
	ld, err := newLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	targets, err := ld.targets()
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]int{}
	for _, tg := range targets {
		if !slices.Contains(exempt, tg.ImportPath) {
			continue
		}
		pkg, err := ld.loadFiles(tg.ImportPath, tg.Dir, tg.GoFiles)
		if err != nil {
			t.Fatal(err)
		}
		found[tg.ImportPath] = len(Check(pkg))
	}
	for _, path := range exempt {
		if found[path] == 0 {
			t.Errorf("exempt package %s produces no finding: drop it from exempt", path)
		}
	}
}
