package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// testBin is the loftcheck binary, built once in TestMain; the end-to-end
// tests exercise real exit codes, which `go test` cannot observe through the
// package API.
var testBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "loftcheck-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	testBin = filepath.Join(dir, "loftcheck")
	if out, err := exec.Command("go", "build", "-o", testBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building loftcheck: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func loftcheckBin(t *testing.T) string {
	t.Helper()
	return testBin
}

// runBin executes loftcheck and returns (stdout+stderr, exit code).
func runBin(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(loftcheckBin(t), args...)
	out, err := cmd.CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("running loftcheck: %v\n%s", err, out)
	}
	return string(out), ee.ExitCode()
}

func TestBrokenModuleFailsWithDiagnostic(t *testing.T) {
	out, code := runBin(t, "-C", "testdata/brokenmod", "./...")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "internal/lsf/bad.go:") || !strings.Contains(out, "[determinism]") {
		t.Errorf("diagnostic missing file position or analyzer tag:\n%s", out)
	}
	if !strings.Contains(out, "time.Now") {
		t.Errorf("diagnostic does not name the offending call:\n%s", out)
	}
}

func TestBrokenModuleJSON(t *testing.T) {
	out, code := runBin(t, "-json", "-C", "testdata/brokenmod", "./...")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\n%s", code, out)
	}
	var doc struct {
		Packages    int      `json:"packages"`
		Clean       bool     `json:"clean"`
		Analyzers   []string `json:"analyzers"`
		Diagnostics []struct {
			Analyzer string `json:"analyzer"`
			File     string `json:"file"`
			Line     int    `json:"line"`
			Col      int    `json:"col"`
			Message  string `json:"message"`
		} `json:"diagnostics"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, out)
	}
	if doc.Clean || doc.Packages < 1 || len(doc.Diagnostics) == 0 {
		t.Fatalf("unexpected JSON document: %+v", doc)
	}
	d := doc.Diagnostics[0]
	if d.Analyzer != "determinism" || d.File != filepath.Join("internal", "lsf", "bad.go") || d.Line <= 0 || d.Col <= 0 {
		t.Errorf("diagnostic fields wrong: %+v", d)
	}
	if len(doc.Analyzers) != 1 || doc.Analyzers[0] != "determinism" {
		t.Errorf("envelope names analyzers %v, want [determinism]", doc.Analyzers)
	}
}

func TestSuppressedModuleCleanByDefaultRejectedByStrict(t *testing.T) {
	out, code := runBin(t, "-C", "testdata/suppressedmod", "./...")
	if code != 0 {
		t.Fatalf("suppressed module: exit code = %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "suppressed by //lint:ignore") {
		t.Errorf("suppression count line missing:\n%s", out)
	}

	out, code = runBin(t, "-strict", "-C", "testdata/suppressedmod", "./...")
	if code != 1 {
		t.Fatalf("-strict with suppressions: exit code = %d, want 1\n%s", code, out)
	}
}

func TestNoMatchPatternIsRunError(t *testing.T) {
	out, code := runBin(t, "./nonexistent/...")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2\n%s", code, out)
	}
	if !strings.Contains(out, "./nonexistent/...") {
		t.Errorf("error does not echo the pattern:\n%s", out)
	}
}

func TestListAnalyzers(t *testing.T) {
	out, code := runBin(t, "-list")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\n%s", code, out)
	}
	if !strings.HasPrefix(out, "determinism ") || strings.Count(out, "\n") != 1 {
		t.Errorf("-list must print the determinism analyzer alone:\n%s", out)
	}
}
