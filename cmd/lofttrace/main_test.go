package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"loft/internal/audit"
	"loft/internal/config"
	"loft/internal/core"
	"loft/internal/perfmon"
	"loft/internal/probe"
	"loft/internal/runio"
	"loft/internal/trace"
	"loft/internal/traffic"
)

var (
	testRunMu   sync.Mutex
	testRunDirs = map[int]string{}
)

// writeTestRun simulates a small LOFT run with the probe, auditor and
// perfmon monitor attached and writes a run directory the CLI can consume.
// Runs are cached per spec setting — the CLI only reads them.
func writeTestRun(t *testing.T, spec int) string {
	t.Helper()
	testRunMu.Lock()
	defer testRunMu.Unlock()
	if dir, ok := testRunDirs[spec]; ok {
		return dir
	}
	cfg := config.PaperLOFTSpec(spec)
	p := traffic.Uniform(cfg.Mesh(), 0.3, cfg.PacketFlits, cfg.FrameFlits)
	pr := probe.New(probe.Config{EventCap: 1 << 20, SampleEvery: 64})
	aud := audit.New(audit.Config{})
	mon := perfmon.New(perfmon.Config{SampleEvery: 4})
	res, _, err := core.RunLOFT(cfg, p, core.RunSpec{Seed: 11, Warmup: 100, Measure: 800, Probe: pr, Audit: aud, Perf: mon})
	if err != nil {
		t.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "lofttrace-test-*")
	if err != nil {
		t.Fatal(err)
	}
	m := trace.Manifest{
		ManifestVersion: trace.ManifestVersion,
		Tool:            "loftsim", Arch: "loft", Pattern: "uniform",
		Seeds: []uint64{11}, WarmupCycles: 100, MeasureCycles: 800,
		MeshK: cfg.MeshK, Nodes: cfg.Mesh().N(), Config: &cfg,
		Metrics: runio.Metrics(&res, pr, aud, mon, uint64(cfg.QuantumFlits)),
	}
	if err := runio.WriteRunDir(dir, pr, aud, mon, m); err != nil {
		t.Fatal(err)
	}
	testRunDirs[spec] = dir
	return dir
}

func TestMain(m *testing.M) {
	code := m.Run()
	for _, dir := range testRunDirs {
		os.RemoveAll(dir)
	}
	os.Exit(code)
}

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestUsageAndBadSubcommand(t *testing.T) {
	if code, _, _ := runCLI(t); code != 2 {
		t.Error("no args: want exit 2")
	}
	if code, _, errOut := runCLI(t, "frobnicate"); code != 2 || !strings.Contains(errOut, "unknown subcommand") {
		t.Errorf("unknown subcommand: code=%d stderr=%q", code, errOut)
	}
	if code, out, _ := runCLI(t, "help"); code != 0 || !strings.Contains(out, "lofttrace diff") {
		t.Errorf("help: code=%d out=%q", code, out)
	}
}

func TestSummaryOnRunDirectory(t *testing.T) {
	dir := writeTestRun(t, 12)
	code, out, errOut := runCLI(t, "summary", dir)
	if code != 0 {
		t.Fatalf("summary: code=%d stderr=%s", code, errOut)
	}
	for _, want := range []string{"run manifest", "loft / uniform", "artifact", "events: ", "data-forward"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary output missing %q:\n%s", want, out)
		}
	}
	if code, _, _ := runCLI(t, "summary", filepath.Join(dir, "nope")); code != 2 {
		t.Error("summary on a missing target: want exit 2")
	}
}

func TestDecomposeOnRunDirectory(t *testing.T) {
	dir := writeTestRun(t, 12)
	code, out, errOut := runCLI(t, "decompose", dir)
	if code != 0 {
		t.Fatalf("decompose: code=%d stderr=%s", code, errOut)
	}
	if strings.Contains(out, "TIMING VIOLATION") {
		t.Errorf("decompose reported timing violations:\n%s", out)
	}
	for _, want := range []string{"quanta complete", "booking-wait", "serialization", "lookahead-wait", "spec-wait", "per-hop residual wait"} {
		if !strings.Contains(out, want) {
			t.Errorf("decompose output missing %q:\n%s", want, out)
		}
	}
	// The manifest supplies the slot length; the header must show the config's
	// QuantumFlits, not the fallback.
	if !strings.Contains(out, "slot = 2 cycles") {
		t.Errorf("decompose did not pick up slot cycles from the manifest:\n%s", out)
	}
	code, jsonOut, _ := runCLI(t, "decompose", "-json", dir)
	if code != 0 || !strings.Contains(jsonOut, `"slot_cycles": 2`) || !strings.Contains(jsonOut, `"booking_wait"`) {
		t.Errorf("decompose -json: code=%d out=%s", code, jsonOut)
	}
}

// TestDecomposeManifest: decompose takes the slot length from the manifest,
// falls back to the paper quantum when there is none, and exits 2 on a
// manifest it cannot read, as summary does.
func TestDecomposeManifest(t *testing.T) {
	events, err := os.ReadFile(filepath.Join(writeTestRun(t, 12), trace.EventsFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, manifest string // manifest "" writes none
		want           string // in stdout, or in stderr on exit 2
		code           int
	}{
		{"missing", "", "slot = 2 cycles", 0},
		{"no-config", `{"manifest_version": 1, "tool": "loftexp"}`, "slot = 2 cycles", 0},
		{"truncated", `{"manifest_version": 1, "config": {`, trace.ManifestName, 2},
		{"not-a-manifest", `{"tool": "loftsim"}`, "missing manifest_version", 2},
	} {
		dir := filepath.Join(t.TempDir(), c.name)
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, trace.EventsFile), events, 0o644); err != nil {
			t.Fatal(err)
		}
		if c.manifest != "" {
			if err := os.WriteFile(filepath.Join(dir, trace.ManifestName), []byte(c.manifest), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		code, out, errOut := runCLI(t, "decompose", dir)
		if code != 0 {
			out = errOut
		}
		if code != c.code || !strings.Contains(out, c.want) {
			t.Errorf("%s: code=%d output begins %q, want exit %d saying %q", c.name, code, strings.SplitN(out, "\n", 2)[0], c.code, c.want)
		}
	}
}

// TestPerfOnRunDirectory pins the acceptance criterion: `lofttrace perf`
// renders the per-stage attribution table and the per-worker
// shard-utilization machinery from a -perf-enabled run directory.
func TestPerfOnRunDirectory(t *testing.T) {
	dir := writeTestRun(t, 12)
	code, out, errOut := runCLI(t, "perf", dir)
	if code != 0 {
		t.Fatalf("perf: code=%d stderr=%s", code, errOut)
	}
	for _, want := range []string{"stage attribution", "booking", "lookahead", "commit", "SHARE", "NS/CALL", "gauges"} {
		if !strings.Contains(out, want) {
			t.Errorf("perf output missing %q:\n%s", want, out)
		}
	}
	code, jsonOut, _ := runCLI(t, "perf", "-json", dir)
	if code != 0 || !strings.Contains(jsonOut, `"sample_every"`) || !strings.Contains(jsonOut, `"stages"`) {
		t.Errorf("perf -json: code=%d out=%s", code, jsonOut)
	}
	// The folded-stack flamegraph export sits next to the snapshot.
	folded, err := os.ReadFile(filepath.Join(dir, trace.FoldedFile))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(folded), "sim;node;booking ") {
		t.Errorf("folded stacks missing node stage frames:\n%s", folded)
	}
	if code, _, _ := runCLI(t, "perf", filepath.Join(dir, "nope")); code != 2 {
		t.Error("perf on a missing target: want exit 2")
	}
}

// TestDiffSelfIsZero pins the acceptance criterion: a run diffed against
// itself reports zero changed metrics, zero breaches, and exits 0.
func TestDiffSelfIsZero(t *testing.T) {
	dir := writeTestRun(t, 12)
	code, out, errOut := runCLI(t, "diff", dir, dir)
	if code != 0 {
		t.Fatalf("self-diff: code=%d stderr=%s", code, errOut)
	}
	if !strings.Contains(out, "0 metric(s) changed, 0 regression breach(es)") {
		t.Errorf("self-diff not zero:\n%s", out)
	}
}

// TestDiffSpecOnVsOff pins the cross-config acceptance criterion: diffing a
// speculation-enabled run against a disabled one must surface both the
// config change and a non-empty decomposition delta.
func TestDiffSpecOnVsOff(t *testing.T) {
	on := writeTestRun(t, 12)
	off := writeTestRun(t, 0)
	code, out, _ := runCLI(t, "diff", "-threshold", "1e9", on, off)
	if code != 0 {
		t.Fatalf("spec on-vs-off diff with huge threshold: code=%d\n%s", code, out)
	}
	if !strings.Contains(out, "config: SpecBufFlits: 12 -> 0") {
		t.Errorf("diff missing the speculation config change:\n%s", out)
	}
	if !strings.Contains(out, "decomp_") {
		t.Errorf("diff reports no decomposition delta:\n%s", out)
	}
}

// TestDiffOlderRunDirectory: testdata/older-run holds the manifest of a
// two-worker run written by an older build, whose schema still had the
// intra-run worker count and config.LOFT still had DataStages. It must load,
// and diffing it against the same run as this build writes it must exit 0
// and report the retired config field as a change.
func TestDiffOlderRunDirectory(t *testing.T) {
	old := filepath.Join("testdata", "older-run")
	m, err := trace.ReadManifest(old)
	if err != nil {
		t.Fatal(err)
	}
	if m.Config == nil || m.Config.SpecBufFlits != 12 || m.Metrics["packets"] != 6278 {
		t.Fatalf("older manifest decoded wrong: config %+v, metrics %v", m.Config, m.Metrics)
	}
	cur := filepath.Join(t.TempDir(), "cur")
	if err := os.Mkdir(cur, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(filepath.Join(cur, trace.ManifestName)); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runCLI(t, "diff", old, cur)
	if code != 0 || errOut != "" {
		t.Fatalf("diff older current: code=%d stderr=%q\n%s", code, errOut, out)
	}
	if n := strings.Count(out, "config: "); n != 1 || !strings.Contains(out, "config: DataStages: 3 -> (unset)") {
		t.Errorf("want exactly the retired DataStages as a config change, got %d:\n%s", n, out)
	}
	if !strings.Contains(out, "0 metric(s) changed, 0 regression breach(es)") {
		t.Errorf("same run, yet metrics changed:\n%s", out)
	}
	if code, _, errOut := runCLI(t, "summary", old); code != 0 {
		t.Errorf("summary of the older run: code=%d stderr=%q", code, errOut)
	}
}

func TestDiffBreachExitCode(t *testing.T) {
	// write makes a run directory whose manifest.json holds body.
	write := func(name, body string) string {
		dir := filepath.Join(t.TempDir(), name)
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, trace.ManifestName), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	base := write("base", `{"manifest_version":1,"metrics":{"avg_latency_cycles":100}}`)
	worse := write("worse", `{"manifest_version":1,"metrics":{"avg_latency_cycles":150}}`)
	code, out, _ := runCLI(t, "diff", base, worse)
	if code != 1 {
		t.Errorf("50%% latency regression: code=%d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "!") || !strings.Contains(out, "1 regression breach(es)") {
		t.Errorf("breach not marked:\n%s", out)
	}
	// The same pair inside the threshold passes.
	if code, _, _ := runCLI(t, "diff", "-threshold", "60", base, worse); code != 0 {
		t.Error("within-threshold diff: want exit 0")
	}
	// Improvement in the good direction never fails, whatever the size.
	if code, _, _ := runCLI(t, "diff", worse, base); code != 0 {
		t.Error("latency improvement: want exit 0")
	}
	// A bare name → value map is not a run manifest.
	flat := write("flat", `{"avg_latency_cycles": 100}`)
	if code, _, errOut := runCLI(t, "diff", flat, base); code != 2 || !strings.Contains(errOut, "not a run manifest") {
		t.Errorf("flat metric map: code=%d stderr=%q, want exit 2 naming the format", code, errOut)
	}
	// A threshold the breach test cannot apply would let the regression
	// above through; it is rejected instead.
	for _, bad := range []string{"NaN", "+Inf", "-Inf", "-1"} {
		if code, _, errOut := runCLI(t, "diff", "-threshold", bad, base, worse); code != 2 || !strings.Contains(errOut, "-threshold") {
			t.Errorf("diff -threshold %s: code=%d stderr=%q, want exit 2", bad, code, errOut)
		}
	}
}

// TestRunDirectoryErrors: lofttrace reads run directories only, and a run
// directory lacking an observer's file is an error naming the flag the run
// was started without, not a bare "no such file".
func TestRunDirectoryErrors(t *testing.T) {
	full := writeTestRun(t, 12)
	bare := filepath.Join(t.TempDir(), "bare")
	m := trace.Manifest{ManifestVersion: trace.ManifestVersion, Tool: "loftsim",
		Metrics: map[string]float64{"packets": 1}}
	if err := runio.WriteRunDir(bare, nil, nil, nil, m); err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(full, trace.EventsFile)
	cases := []struct {
		args []string
		want string // in stderr; "" for a clean exit 0
	}{
		{[]string{"summary", bare}, ""},
		{[]string{"diff", bare, bare}, ""},
		{[]string{"decompose", bare}, "the run had no -probe"},
		{[]string{"perf", bare}, "the run had no -perf"},
		{[]string{"summary", file}, "lofttrace reads run directories"},
		{[]string{"decompose", file}, "lofttrace reads run directories"},
		{[]string{"perf", file}, "lofttrace reads run directories"},
		{[]string{"diff", full, file}, "lofttrace reads run directories"},
		{[]string{"diff", filepath.Join(full, trace.ManifestName), full}, "lofttrace reads run directories"},
		{[]string{"perf", "-diff", full, full}, "flag provided but not defined: -diff"},
	}
	for _, c := range cases {
		code, _, errOut := runCLI(t, c.args...)
		if c.want == "" {
			if code != 0 {
				t.Errorf("%q: code=%d stderr=%q, want exit 0", c.args, code, errOut)
			}
			continue
		}
		if code != 2 || !strings.Contains(errOut, c.want) {
			t.Errorf("%q: code=%d stderr=%q, want exit 2 saying %q", c.args, code, errOut, c.want)
		}
	}
}
