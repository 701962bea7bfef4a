// Package lint is loftcheck's analyzer framework: a stdlib-only static
// analysis driver (go/ast, go/parser, go/token, go/types) for the one
// invariant the runtime checks cannot see.
//
// The framework loads packages from source, type-checks them against export
// data produced by the go tool (load.go), and runs one repo-specific
// analyzer over the typed syntax trees:
//
//   - determinism: simulation packages must not consult wall-clock time,
//     the global math/rand generators, or iterate maps where the iteration
//     order can leak into results (the parallel-sweep ≡ sequential
//     byte-identity contract). A wall-clock read or an unseeded draw can
//     agree with every stored golden on the day it lands, so only a static
//     check catches it.
//
// The other engineering contracts are checked at run time. The observer
// sinks (perfmon timers and monitor, probe stages, tracer and probe, the
// auditor) are no-ops on a nil handle or an unwanted kind, so a missing
// call-site guard costs argument evaluation, never a record. Compute-phase
// purity — no shared, order-sensitive write from a node's Tick — is what
// `go test -race` reports on the two-worker goldens (make race). The
// zero-allocation steady state is measured by the root package's
// TestSteadyStateZeroAlloc over a table of real runs.
//
// Diagnostics carry file:line:col positions and can be suppressed — with a
// mandatory reason — by a `//lint:ignore <analyzer> <reason>` comment on the
// flagged line or the line above it. Suppressions are reported separately so
// a gate can refuse them in designated packages.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one invariant checker. Run is invoked once per loaded package
// whose import path satisfies Match.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:ignore
	// comments. Lower-case, no spaces.
	Name string
	// Doc is a one-line description shown by loftcheck -list.
	Doc string
	// Match reports whether the analyzer applies to a package. A nil Match
	// applies to every package. The corpus harness bypasses Match so
	// testdata packages exercise analyzers regardless of their import path.
	Match func(importPath string) bool
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// Pass carries one package's typed syntax to an analyzer.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Reportf records one diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, positioned for editors (file:line:col).
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
	// SuppressedBy holds the reason of the //lint:ignore comment that
	// suppressed this diagnostic (empty for active diagnostics).
	SuppressedBy string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Result is the outcome of one driver run.
type Result struct {
	// Diagnostics are the active findings, sorted by (file, line, column,
	// analyzer) across every analyzed package.
	Diagnostics []Diagnostic
	// Suppressed are findings neutralized by //lint:ignore comments, sorted
	// the same way.
	Suppressed []Diagnostic
	// Packages counts the packages analyzed.
	Packages int
	// Analyzers names the analyzers that ran, in reporting order.
	Analyzers []string
	// Revision is the repo HEAD commit the run analyzed (best effort; empty
	// outside a git checkout). It makes archived -json artifacts diffable
	// across CI runs.
	Revision string
}

// Clean reports whether the run produced no active diagnostics.
func (r Result) Clean() bool { return len(r.Diagnostics) == 0 }

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	analyzer string
	reason   string
	file     string
	line     int
	used     bool
}

var ignoreRE = regexp.MustCompile(`^//lint:ignore\s+(\S+)(?:\s+(.*))?$`)

// collectIgnores extracts the //lint:ignore directives of one file, keyed by
// the line the directive ends on. Malformed directives (missing analyzer or
// reason) are themselves diagnostics: a suppression without a recorded
// rationale is how invariants rot silently.
func collectIgnores(fset *token.FileSet, f *ast.File, diags *[]Diagnostic) map[int][]*ignoreDirective {
	out := make(map[int][]*ignoreDirective)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(c.Text)
			if !strings.HasPrefix(text, "//lint:ignore") {
				continue
			}
			pos := fset.Position(c.Pos())
			m := ignoreRE.FindStringSubmatch(text)
			if m == nil || strings.TrimSpace(m[2]) == "" {
				*diags = append(*diags, Diagnostic{
					Analyzer: "lint",
					Pos:      pos,
					Message:  "malformed //lint:ignore: need `//lint:ignore <analyzer> <reason>` with a non-empty reason",
				})
				continue
			}
			end := fset.Position(c.End()).Line
			out[end] = append(out[end], &ignoreDirective{
				analyzer: m[1],
				reason:   strings.TrimSpace(m[2]),
				file:     pos.Filename,
				line:     end,
			})
		}
	}
	return out
}

// runPackage executes every applicable analyzer over one loaded package and
// returns its active and suppressed diagnostics.
func runPackage(pkg *Package, bypassMatch bool) (active, suppressed []Diagnostic) {
	var diags []Diagnostic
	for _, a := range All() {
		if !bypassMatch && a.Match != nil && !a.Match(pkg.Pkg.Path()) {
			continue
		}
		pass := &Pass{
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Pkg,
			Info:     pkg.Info,
			analyzer: a,
			diags:    &diags,
		}
		a.Run(pass)
	}

	// Suppression pass: a diagnostic at line L is neutralized by a matching
	// //lint:ignore directive ending on line L or L-1 in the same file.
	ignores := make(map[string]map[int][]*ignoreDirective)
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		ignores[name] = collectIgnores(pkg.Fset, f, &diags)
	}
	for _, d := range diags {
		dir := matchIgnore(ignores[d.Pos.Filename], d)
		if dir == nil {
			active = append(active, d)
			continue
		}
		dir.used = true
		d.SuppressedBy = dir.reason
		suppressed = append(suppressed, d)
	}
	// Unused directives are diagnostics too: a stale ignore hides nothing
	// today but will silently swallow a real finding tomorrow. One naming no
	// analyzer at all can never be used.
	for _, file := range ignores {
		for _, dirs := range file {
			for _, dir := range dirs {
				if dir.used {
					continue
				}
				msg := fmt.Sprintf("unused //lint:ignore %s directive (no diagnostic to suppress)", dir.analyzer)
				if !analyzerKnown(dir.analyzer) {
					msg = fmt.Sprintf("//lint:ignore names unknown analyzer %q", dir.analyzer)
				}
				active = append(active, Diagnostic{
					Analyzer: "lint",
					Pos:      token.Position{Filename: dir.file, Line: dir.line},
					Message:  msg,
				})
			}
		}
	}
	sortDiags(active)
	sortDiags(suppressed)
	return active, suppressed
}

func analyzerKnown(name string) bool {
	for _, a := range All() {
		if a.Name == name {
			return true
		}
	}
	return false
}

func matchIgnore(byLine map[int][]*ignoreDirective, d Diagnostic) *ignoreDirective {
	if byLine == nil {
		return nil
	}
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		for _, dir := range byLine[line] {
			if dir.analyzer == d.Analyzer {
				return dir
			}
		}
	}
	return nil
}

func sortDiags(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// Config parameterizes a driver run.
type Config struct {
	// Patterns are go-tool package patterns (e.g. "./...") resolved relative
	// to the module root.
	Patterns []string
	// Dir is the module root; "" means: locate go.mod upward from the
	// working directory.
	Dir string
}

// Run loads every package matching cfg.Patterns and executes every analyzer.
// A non-nil error means the analysis itself could not run (load or type
// failure) — distinct from a clean run that found diagnostics.
func Run(cfg Config) (Result, error) {
	ld, err := newLoader(cfg.Dir)
	if err != nil {
		return Result{}, err
	}
	targets, err := ld.targets(cfg.Patterns)
	if err != nil {
		return Result{}, err
	}
	var res Result
	for _, a := range All() {
		res.Analyzers = append(res.Analyzers, a.Name)
	}
	res.Revision = headRevision(ld.root)
	for _, t := range targets {
		pkg, err := ld.load(t)
		if err != nil {
			return Result{}, err
		}
		res.Packages++
		active, suppressed := runPackage(pkg, false)
		res.Diagnostics = append(res.Diagnostics, active...)
		res.Suppressed = append(res.Suppressed, suppressed...)
	}
	// Per-package runs emit sorted; re-sort globally so the emission order is
	// a pure function of the findings, not of package iteration order.
	sortDiags(res.Diagnostics)
	sortDiags(res.Suppressed)
	return res, nil
}

// headRevision returns the repo's HEAD commit, best effort: empty outside a
// git checkout or when git is unavailable.
func headRevision(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// WriteText renders a result in the conventional file:line:col format.
func WriteText(w io.Writer, r Result) {
	for _, d := range r.Diagnostics {
		fmt.Fprintln(w, d.String())
	}
	if n := len(r.Suppressed); n > 0 {
		fmt.Fprintf(w, "(%d diagnostic(s) suppressed by //lint:ignore)\n", n)
	}
}
