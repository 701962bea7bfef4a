package runio

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"loft/internal/config"
	"loft/internal/core"
	"loft/internal/trace"
)

// sessionFlags parses args the way both CLIs do: the shared flags registered
// by the session, then Load.
func sessionFlags(t *testing.T, tool string, args ...string) (*Session, *flag.FlagSet) {
	t.Helper()
	s := &Session{Tool: tool}
	fs := flag.NewFlagSet(tool, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	s.Flags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if err := s.Load(fs); err != nil {
		t.Fatal(err)
	}
	return s, fs
}

// TestSessionMessagesNameRegisteredFlags reads every string the session can
// print — warnings, errors, flag help — and requires each -flag it names to
// be one the session registers. Both CLIs take their shared flags from
// Session.Flags alone, so a flag registered there exists in both: loftexp
// used to tell users to "raise -probe-events", which only loftsim defined.
func TestSessionMessagesNameRegisteredFlags(t *testing.T) {
	_, fs := sessionFlags(t, "loftexp")
	file, err := parser.ParseFile(token.NewFileSet(), "session.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A flag mention is a dash-word that does not continue a word (so not
	// the tail of "run-directory").
	mention := regexp.MustCompile(`(?:^|[^A-Za-z0-9-])-([a-z][a-z-]*[a-z]|j)\b`)
	named := 0
	ast.Inspect(file, func(n ast.Node) bool {
		lit, ok := n.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		text, err := strconv.Unquote(lit.Value)
		if err != nil {
			t.Fatalf("unquote %s: %v", lit.Value, err)
		}
		for _, m := range mention.FindAllStringSubmatch(text, -1) {
			named++
			if fs.Lookup(m[1]) == nil {
				t.Errorf("message %q names -%s, which the shared flag set does not define", text, m[1])
			}
		}
		return true
	})
	if named < 5 || fs.Lookup("probe-events") == nil {
		t.Fatalf("scan found %d flag mentions; the ring-overflow warning's -probe-events must be among the registered flags", named)
	}
}

// TestSessionProfiledRunDirectory drives a session the way `loftexp -perf
// -probe-out dir/` does and checks the run directory README promises: the
// perf snapshot, the folded stacks and a cpu.pprof that was stopped before
// the manifest checksummed it. Only loftsim used to collect the profile.
func TestSessionProfiledRunDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	s, _ := sessionFlags(t, "loftexp", "-perf", "-perf-sample", "8", "-jnode", "2", "-probe-out", dir+"/")
	if !s.Observed() {
		t.Fatal("-perf -probe-out is an observed run")
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if s.Probe == nil || s.Perf == nil || s.Audit != nil {
		t.Fatalf("observers built: probe %v perf %v audit %v", s.Probe != nil, s.Perf != nil, s.Audit != nil)
	}
	cfg := config.PaperLOFT()
	_, err := core.Run(core.ArchLOFT, cfg, testPattern(cfg), core.RunSpec{Seed: s.Seed, Warmup: 100, Measure: 900,
		Probe: s.Probe, Perf: s.Perf, Workers: s.NodeWorkers, Stop: s.Interrupted})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Export(s.Manifest); err != nil {
		t.Fatal(err)
	}
	if code := s.Finish(); code != 0 {
		t.Fatalf("exit code %d, want 0", code)
	}
	m, err := trace.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Tool != "loftexp" || m.NodeWorkers != 2 {
		t.Errorf("manifest base: tool %q, node workers %d", m.Tool, m.NodeWorkers)
	}
	got := map[string]trace.Artifact{}
	for _, a := range m.Artifacts {
		got[a.Name] = a
	}
	for _, name := range []string{EventsFile, SeriesFile, ChromeFile, PerfFile, FoldedFile, CPUProfileFile} {
		a, ok := got[name]
		if !ok {
			t.Errorf("run directory manifest lacks %s: %+v", name, m.Artifacts)
			continue
		}
		disk, err := trace.FileArtifact(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if disk.SHA256 != a.SHA256 || disk.Bytes == 0 {
			t.Errorf("%s: manifest %+v, disk %+v — written after the manifest, or empty", name, a, disk)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, AuditFile)); err == nil {
		t.Errorf("%s written without -audit", AuditFile)
	}
}

// TestSessionLoadRejectsProbeOut pins the -probe-out contract Load enforces
// before any run starts: a run directory (trailing separator, or an existing
// directory) or a .jsonl/.csv/.json file. Any other name used to be written
// as Chrome trace JSON, so `-probe-out runs/a` produced a file named a.
func TestSessionLoadRejectsProbeOut(t *testing.T) {
	dir := t.TempDir()
	for _, ok := range []string{"x.jsonl", "x.csv", "x.json", "runs/a/", dir} {
		sessionFlags(t, "loftsim", "-probe-out", ok)
	}
	for _, bad := range []string{"x.prom", "runs/a", "trace"} {
		s := &Session{Tool: "loftsim"}
		fs := flag.NewFlagSet("loftsim", flag.ContinueOnError)
		s.Flags(fs)
		if err := fs.Parse([]string{"-probe-out", bad}); err != nil {
			t.Fatal(err)
		}
		err := s.Load(fs)
		if err == nil {
			t.Errorf("-probe-out %s: Load accepted it", bad)
			continue
		}
		for _, want := range []string{".jsonl", ".csv", ".json", "trailing /"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("-probe-out %s: error %q does not mention %s", bad, err, want)
			}
		}
	}
}

// TestSessionLoadRejectsCounts: -probe-events and -perf-sample below 1 are
// usage errors. Both used to be replaced silently, by a 1,048,576-event ring
// and by a sample every 64 cycles.
func TestSessionLoadRejectsCounts(t *testing.T) {
	sessionFlags(t, "loftsim", "-probe-events", "1", "-perf-sample", "1")
	for _, bad := range [][]string{
		{"-probe-events", "0"},
		{"-probe-events", "-5"},
		{"-perf-sample", "0"},
	} {
		s := &Session{Tool: "loftsim"}
		fs := flag.NewFlagSet("loftsim", flag.ContinueOnError)
		s.Flags(fs)
		if err := fs.Parse(bad); err != nil {
			t.Fatal(err)
		}
		if err := s.Load(fs); err == nil || !strings.Contains(err.Error(), bad[0]+" "+bad[1]) {
			t.Errorf("%s %s: Load returned %v, want an error naming the value", bad[0], bad[1], err)
		}
	}
}
