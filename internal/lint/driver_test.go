package lint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadSuppressCorpus loads testdata/src/suppress, which carries one justified
// suppression (line above), one same-line suppression, one malformed
// directive, and one stale directive.
func loadSuppressCorpus(t *testing.T) (active, suppressed []Diagnostic) {
	t.Helper()
	ld, err := newLoader(".")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkg, err := ld.loadDir("corpus/suppress", "testdata/src/suppress")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return runPackage(pkg, true)
}

func TestSuppressions(t *testing.T) {
	active, suppressed := loadSuppressCorpus(t)

	if len(suppressed) != 2 {
		t.Fatalf("suppressed = %d diagnostics, want 2:\n%v", len(suppressed), suppressed)
	}
	for _, d := range suppressed {
		if d.Analyzer != "determinism" {
			t.Errorf("suppressed diagnostic from %q, want determinism", d.Analyzer)
		}
		if d.SuppressedBy == "" {
			t.Errorf("suppressed diagnostic lost its reason: %s", d)
		}
	}

	// Active findings: the malformed directive, the time.Now it therefore
	// failed to suppress, and the stale directive.
	var gotMalformed, gotUnsuppressed, gotStale bool
	for _, d := range active {
		switch {
		case strings.Contains(d.Message, "malformed //lint:ignore"):
			gotMalformed = true
		case strings.Contains(d.Message, "time.Now"):
			gotUnsuppressed = true
		case strings.Contains(d.Message, "unused //lint:ignore"):
			gotStale = true
		default:
			t.Errorf("unexpected active diagnostic: %s", d)
		}
	}
	if !gotMalformed || !gotUnsuppressed || !gotStale {
		t.Errorf("active findings incomplete (malformed=%v unsuppressed=%v stale=%v):\n%v",
			gotMalformed, gotUnsuppressed, gotStale, active)
	}
}

func TestSuppressionNamingNoAnalyzerReported(t *testing.T) {
	// A directive for an analyzer that does not exist can never suppress
	// anything; it is reported as such, not as merely unused.
	dir := t.TempDir()
	src := "package p\n\n//lint:ignore nosuchanalyzer reason\nvar x = 1\n"
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	ld, err := newLoader(".")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkg, err := ld.loadDir("corpus/unknownignore", dir)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	active, _ := runPackage(pkg, true)
	if len(active) != 1 || active[0].Analyzer != "lint" || active[0].Pos.Line != 3 ||
		!strings.Contains(active[0].Message, `unknown analyzer "nosuchanalyzer"`) {
		t.Errorf("want one lint diagnostic on line 3 naming the unknown analyzer, got %v", active)
	}
}

func TestWriteJSONSchema(t *testing.T) {
	active, suppressed := loadSuppressCorpus(t)
	res := Result{
		Diagnostics: active,
		Suppressed:  suppressed,
		Packages:    1,
		Analyzers:   []string{"determinism"},
		Revision:    "deadbeef",
	}

	var buf bytes.Buffer
	if err := WriteJSON(&buf, res); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var doc struct {
		Packages    int      `json:"packages"`
		Clean       bool     `json:"clean"`
		Analyzers   []string `json:"analyzers"`
		Revision    string   `json:"revision"`
		Diagnostics []struct {
			Analyzer string `json:"analyzer"`
			File     string `json:"file"`
			Line     int    `json:"line"`
			Col      int    `json:"col"`
			Message  string `json:"message"`
		} `json:"diagnostics"`
		Suppressed []struct {
			Suppressed string `json:"suppressed"`
		} `json:"suppressed"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.Packages != 1 || doc.Clean {
		t.Errorf("packages=%d clean=%v, want 1/false", doc.Packages, doc.Clean)
	}
	if len(doc.Analyzers) != 1 || doc.Analyzers[0] != "determinism" || doc.Revision != "deadbeef" {
		t.Errorf("envelope analyzers=%v revision=%q, want [determinism]/deadbeef", doc.Analyzers, doc.Revision)
	}
	if len(doc.Diagnostics) != len(active) {
		t.Errorf("diagnostics count %d, want %d", len(doc.Diagnostics), len(active))
	}
	for _, d := range doc.Diagnostics {
		if d.Analyzer == "" || d.File == "" || d.Line <= 0 || d.Message == "" {
			t.Errorf("incomplete diagnostic in JSON: %+v", d)
		}
	}
	for _, s := range doc.Suppressed {
		if s.Suppressed == "" {
			t.Errorf("suppressed entry lost its reason")
		}
	}
}

func TestWriteJSONEmptyDiagnosticsIsArray(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, Result{Packages: 3}); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if strings.Contains(buf.String(), "\"diagnostics\": null") {
		t.Errorf("clean result must encode diagnostics as [], got:\n%s", buf.String())
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc["clean"] != true {
		t.Errorf("clean=%v, want true", doc["clean"])
	}
}

func TestTextOutputFormat(t *testing.T) {
	active, _ := loadSuppressCorpus(t)
	if len(active) == 0 {
		t.Fatal("suppress corpus produced no active diagnostics")
	}
	var buf bytes.Buffer
	WriteText(&buf, Result{Diagnostics: active})
	first := strings.SplitN(buf.String(), "\n", 2)[0]
	// file:line:col: message [analyzer]
	if !strings.Contains(first, "testdata/src/suppress/s.go:") || !strings.HasSuffix(first, "]") {
		t.Errorf("text diagnostic not in file:line:col ... [analyzer] form: %q", first)
	}
}
