package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// target describes one package to check, as reported by the go tool.
type target struct {
	ImportPath string
	Dir        string
	GoFiles    []string
}

// extraStdPackages are stdlib packages the corpus testdata imports beyond
// what the module itself depends on; their export data must be in the
// universe even when no repo package imports them.
var extraStdPackages = []string{"fmt", "log", "math/rand", "sync", "time"}

// loader type-checks packages from source against export data produced by
// the go tool. One `go list -export -deps` invocation builds the import
// universe (compiled export data for every dependency, stdlib included);
// each checked package is then parsed and type-checked from its .go files,
// so Check sees full syntax plus full type information without any
// non-stdlib dependency.
type loader struct {
	root    string // module root (directory containing go.mod)
	fset    *token.FileSet
	imp     types.Importer
	exports map[string]string // import path -> export data file
}

// findModuleRoot walks upward from dir to the directory containing go.mod.
func findModuleRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("lint: no go.mod found upward of %s", dir)
		}
		d = parent
	}
}

func newLoader(dir string) (*loader, error) {
	root, err := findModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	ld := &loader{root: root, fset: token.NewFileSet()}
	if err := ld.buildUniverse(); err != nil {
		return nil, err
	}
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := ld.exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q (is it built?)", path)
		}
		return os.Open(f)
	}
	ld.imp = importer.ForCompiler(ld.fset, "gc", lookup)
	return ld, nil
}

// goList runs `go list -json=...` in the module root and decodes every
// package it prints.
func goList[T any](root string, args ...string) ([]T, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []T
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p T
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
}

// buildUniverse records export data for every dependency of the module plus
// the corpus extras. -export compiles (or reuses from the build cache) each
// package's export data; -e tolerates packages that fail to list, surfaced
// later only if something actually imports them.
func (ld *loader) buildUniverse() error {
	args := append([]string{"-e", "-export", "-deps", "-json=ImportPath,Export", "./..."}, extraStdPackages...)
	pkgs, err := goList[struct{ ImportPath, Export string }](ld.root, args...)
	if err != nil {
		return err
	}
	ld.exports = make(map[string]string)
	for _, p := range pkgs {
		if p.Export != "" {
			ld.exports[p.ImportPath] = p.Export
		}
	}
	return nil
}

// targets lists the module's packages (`go list ./...`) sorted by import
// path. A module without any is an error: a check over nothing must not
// read as clean.
func (ld *loader) targets() ([]target, error) {
	all, err := goList[target](ld.root, "-json=ImportPath,Dir,GoFiles", "./...")
	if err != nil {
		return nil, err
	}
	var ts []target
	for _, t := range all {
		if len(t.GoFiles) > 0 {
			ts = append(ts, t)
		}
	}
	if len(ts) == 0 {
		return nil, fmt.Errorf("lint: go list ./... matched no packages in %s", ld.root)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].ImportPath < ts[j].ImportPath })
	return ts, nil
}

// loadDir parses and type-checks every non-test .go file of dir as a single
// package with the given import path. The corpus harness uses it to load
// testdata packages the go tool refuses to enumerate.
func (ld *loader) loadDir(importPath, dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		files = append(files, name)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no .go files in %s", dir)
	}
	sort.Strings(files)
	return ld.loadFiles(importPath, dir, files)
}

// loadFiles parses and type-checks goFiles of dir as the package importPath.
func (ld *loader) loadFiles(importPath, dir string, goFiles []string) (*Package, error) {
	var files []*ast.File
	for _, gf := range goFiles {
		path := filepath.Join(dir, gf)
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		// The module-root-relative name is the position label, so
		// diagnostics read the same from any working directory.
		f, err := parser.ParseFile(ld.fset, ld.rel(path), src, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: ld.imp}
	pkg, err := conf.Check(importPath, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", importPath, err)
	}
	return &Package{Fset: ld.fset, Files: files, Pkg: pkg, Info: info}, nil
}

// rel renders path relative to the module root when possible: diagnostics
// then read the same from any working directory inside the repo.
func (ld *loader) rel(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return path
	}
	if r, err := filepath.Rel(ld.root, abs); err == nil && !strings.HasPrefix(r, "..") {
		return filepath.ToSlash(r)
	}
	return path
}
