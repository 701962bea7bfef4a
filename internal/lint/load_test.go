package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The loader's failure paths must surface as errors naming the offending
// path — a lint driver that panics on malformed input cannot gate CI.

func TestLoadUnparsablePackageIsError(t *testing.T) {
	ld, err := newLoader(".")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	// The broken package must live inside the module (the loader resolves
	// positions against the module root), so build it on the fly rather than
	// checking in a file that would trip gofmt.
	dir, err := os.MkdirTemp(".", "broken-corpus-")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	src := filepath.Join(dir, "bad.go")
	if err := os.WriteFile(src, []byte("package bad\n\nfunc oops( {\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = ld.loadDir("corpus/broken", dir)
	if err == nil {
		t.Fatal("loading an unparsable package succeeded")
	}
	if !strings.Contains(err.Error(), "bad.go") {
		t.Errorf("error does not name the unparsable file: %v", err)
	}
}

func TestLoadMissingExportDataIsError(t *testing.T) {
	ld, err := newLoader(".")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	dir, err := os.MkdirTemp(".", "noexport-corpus-")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	src := filepath.Join(dir, "imp.go")
	code := "package imp\n\nimport \"nonexistent/dependency\"\n\nvar _ = dependency.Thing\n"
	if err := os.WriteFile(src, []byte(code), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = ld.loadDir("corpus/noexport", dir)
	if err == nil {
		t.Fatal("loading a package with an unbuildable import succeeded")
	}
	if !strings.Contains(err.Error(), "no export data") || !strings.Contains(err.Error(), "nonexistent/dependency") {
		t.Errorf("error does not name the missing import: %v", err)
	}
}

func TestLoadEmptyDirIsError(t *testing.T) {
	ld, err := newLoader(".")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	dir, err := os.MkdirTemp(".", "empty-corpus-")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	_, err = ld.loadDir("corpus/empty", dir)
	if err == nil {
		t.Fatal("loading a directory without .go files succeeded")
	}
	if !strings.Contains(err.Error(), "no .go files") || !strings.Contains(err.Error(), dir) {
		t.Errorf("error does not name the empty directory: %v", err)
	}
}

func TestTargetsNoMatchIsError(t *testing.T) {
	// A module whose ./... matches nothing must fail Module, not pass it.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module empty\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Module(dir)
	if err == nil {
		t.Fatal("Module over a module without packages succeeded")
	}
	if !strings.Contains(err.Error(), "./...") || !strings.Contains(err.Error(), "matched no packages") {
		t.Errorf("error does not say ./... matched nothing: %v", err)
	}
}
