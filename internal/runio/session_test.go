package runio

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"reflect"
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

// TestSessionFlagSet pins the shared flag vocabulary both CLIs register:
// one -out for every artifact, observer flags that choose what is
// collected, and the execution and profiling flags.
func TestSessionFlagSet(t *testing.T) {
	_, fs := sessionFlags(t, "loftsim")
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := []string{"audit", "cpuprofile", "fault", "j", "memprofile", "out",
		"perf", "perf-sample", "probe", "probe-events", "probe-sample", "seed"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("shared flags %q, want %q", got, want)
	}
}

// runSession drives s the way both CLIs do after Load: Start, one small LOFT
// run with the observers the flags built, Export with the session's
// manifest, and Finish, whose exit code it returns.
func runSession(t *testing.T, s *Session) int {
	t.Helper()
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	cfg := config.PaperLOFT()
	_, err := core.Run(core.ArchLOFT, cfg, testPattern(cfg), core.RunSpec{Seed: s.Seed, Warmup: 100, Measure: 900,
		Probe: s.Probe, Audit: s.Audit, Perf: s.Perf, Stop: s.Interrupted})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Export(s.Manifest); err != nil {
		t.Fatal(err)
	}
	return s.Finish()
}

// artifactNames returns the names the manifest of run directory dir
// checksums, after checking each checksum against the file on disk.
func artifactNames(t *testing.T, dir string) []string {
	t.Helper()
	m, err := trace.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, a := range m.Artifacts {
		disk, err := trace.FileArtifact(filepath.Join(dir, a.Name))
		if err != nil {
			t.Fatal(err)
		}
		if disk.SHA256 != a.SHA256 || disk.Bytes == 0 {
			t.Errorf("%s: manifest %+v, disk %+v — written after the manifest, or empty", a.Name, a, disk)
		}
		names = append(names, a.Name)
	}
	return names
}

// TestSessionProfiledRunDirectory drives a session the way `loftexp -probe
// -perf -out dir` does and checks the run directory README promises: the
// probe's three files, the perf snapshot and the folded stacks, each
// checksummed by a manifest that records the tool.
func TestSessionProfiledRunDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	s, _ := sessionFlags(t, "loftexp", "-probe", "-perf", "-perf-sample", "8", "-out", dir)
	if !s.Observed() {
		t.Fatal("-probe -perf is an observed run")
	}
	if code := runSession(t, s); code != 0 {
		t.Fatalf("exit code %d, want 0", code)
	}
	if s.Probe == nil || s.Perf == nil || s.Audit != nil {
		t.Fatalf("observers built: probe %v perf %v audit %v", s.Probe != nil, s.Perf != nil, s.Audit != nil)
	}
	m, err := trace.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Tool != "loftexp" {
		t.Errorf("manifest base: tool %q", m.Tool)
	}
	want := []string{trace.EventsFile, trace.SeriesFile, trace.ChromeFile, trace.PerfFile, trace.FoldedFile}
	if got := artifactNames(t, dir); !reflect.DeepEqual(got, want) {
		t.Errorf("artifacts %q, want %q", got, want)
	}
}

// TestSessionOutWithoutObservers: -out chooses where artifacts go and
// collects nothing itself. With no observer flag the run is unobserved and
// its directory holds the manifest alone.
func TestSessionOutWithoutObservers(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	s, _ := sessionFlags(t, "loftsim", "-out", dir)
	if s.Observed() {
		t.Fatal("-out alone attaches no observer")
	}
	if code := runSession(t, s); code != 0 {
		t.Fatalf("exit code %d, want 0", code)
	}
	if got := artifactNames(t, dir); len(got) != 0 {
		t.Errorf("artifacts %q, want none", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != trace.ManifestName {
		t.Errorf("run directory holds %v, want %s alone", entries, trace.ManifestName)
	}
}

// TestSessionCPUProfileWithPerfOut: -cpuprofile beside -perf and a run
// directory used to start a second pprof CPU profile for the directory's
// own cpu.pprof and exit 1 ("cpu profiling already in use"). The run
// directory collects no CPU profile now, so both flags work together.
func TestSessionCPUProfileWithPerfOut(t *testing.T) {
	tmp := t.TempDir()
	cpu, dir := filepath.Join(tmp, "cpu.pprof"), filepath.Join(tmp, "run")
	s, _ := sessionFlags(t, "loftsim", "-cpuprofile", cpu, "-perf", "-out", dir)
	if code := runSession(t, s); code != 0 {
		t.Fatalf("exit code %d, want 0", code)
	}
	if st, err := os.Stat(cpu); err != nil || st.Size() == 0 {
		t.Errorf("-cpuprofile %s: %v, want a non-empty profile", cpu, err)
	}
	if _, err := os.Stat(filepath.Join(dir, trace.PerfFile)); err != nil {
		t.Errorf("run directory lacks %s: %v", trace.PerfFile, err)
	}
}

// TestSessionLoadRejectsOutFile: -out names a run directory, existing or
// not. An existing regular file is refused before any run starts.
func TestSessionLoadRejectsOutFile(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "x.json")
	if err := os.WriteFile(file, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, ok := range []string{dir, filepath.Join(dir, "new"), filepath.Join(dir, "new") + "/"} {
		sessionFlags(t, "loftsim", "-out", ok)
	}
	s := &Session{Tool: "loftsim"}
	fs := flag.NewFlagSet("loftsim", flag.ContinueOnError)
	s.Flags(fs)
	if err := fs.Parse([]string{"-out", file}); err != nil {
		t.Fatal(err)
	}
	if err := s.Load(fs); err == nil || !strings.Contains(err.Error(), "run directory") {
		t.Errorf("-out %s: Load returned %v, want an error saying -out names a run directory", file, err)
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
