package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The corpus harness: a true-positive package (a) whose findings are pinned
// by `// want "regexp"` comments, and a clean-negative package (clean) that
// must produce nothing, under testdata/src/determinism. Packages are loaded
// through the same loader as Module, and Check runs on them whatever their
// import path.

func TestCorpus(t *testing.T) {
	ld, err := newLoader(".")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	for _, variant := range []string{"a", "clean"} {
		t.Run("determinism/"+variant, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", "determinism", variant)
			pkg, err := ld.loadDir("corpus/determinism/"+variant, dir)
			if err != nil {
				t.Fatalf("load %s: %v", dir, err)
			}
			diags := Check(pkg)
			checkWants(t, pkg, diags)
			if variant == "clean" && len(diags) != 0 {
				t.Errorf("clean corpus produced %d diagnostics", len(diags))
			}
			if variant == "a" && len(diags) == 0 {
				t.Errorf("true-positive corpus produced no diagnostics")
			}
		})
	}
}

// wantEntry is one expected diagnostic, parsed from a `// want "re"` comment.
type wantEntry struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile("//\\s*want\\s+(.*)$")
var wantArgRE = regexp.MustCompile("`([^`]+)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// collectWants parses the want comments of a loaded package. Each comment
// may carry several quoted regexps (backquoted or double-quoted), each
// expecting one diagnostic on the comment's line.
func collectWants(t *testing.T, pkg *Package) []*wantEntry {
	t.Helper()
	var wants []*wantEntry
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				args := wantArgRE.FindAllStringSubmatch(m[1], -1)
				if len(args) == 0 {
					t.Errorf("%s:%d: want comment with no quoted pattern", pos.Filename, pos.Line)
					continue
				}
				for _, a := range args {
					pat := a[1]
					if pat == "" {
						pat = a[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
						continue
					}
					wants = append(wants, &wantEntry{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// checkWants verifies the diagnostics of one corpus package against its want
// comments: every diagnostic must match an unconsumed want on its line, and
// every want must be consumed.
func checkWants(t *testing.T, pkg *Package, diags []Diagnostic) {
	t.Helper()
	wants := collectWants(t, pkg)
	for _, d := range diags {
		found := false
		for _, w := range wants {
			if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	var missing []string
	for _, w := range wants {
		if !w.matched {
			missing = append(missing, fmt.Sprintf("%s:%d: %s", w.file, w.line, w.re))
		}
	}
	if len(missing) > 0 {
		t.Errorf("expected diagnostics not reported:\n  %s", strings.Join(missing, "\n  "))
	}
}
