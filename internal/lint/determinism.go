// Package lint holds the repo's one static check, determinism: results and
// exported artifacts must be functions of (config, seed) alone, so no
// package may consult a wall clock, a global math/rand generator or the
// environment, or range over a map where the iteration order can escape the
// loop. A wall-clock read or an unseeded draw can agree with every stored
// golden on the day it lands, so only a static check catches it.
//
// Check runs it over one package loaded from source and type-checked
// against export data produced by the go tool (load.go), stdlib only.
// Module runs it over every package of the module except the exempt set,
// and TestModule does that inside `go test ./...`. The contracts checked at
// run time instead are listed in DESIGN.md §11.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// exempt are the only packages that may read wall time or range maps raw:
// runenv stamps run manifests with the host's clock and revision, perfmon
// times host-side stages, and det is where the sorted map walk lives.
// Neither clock feeds simulation state, so profiled runs stay
// byte-identical. Every other package, including new ones, is checked.
var exempt = []string{
	"loft/internal/det",
	"loft/internal/perfmon",
	"loft/internal/runenv",
}

// Diagnostic is one finding, positioned for editors (file:line:col).
type Diagnostic struct {
	Pos     token.Position
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message)
}

// Module checks every package `go list ./...` finds in the module containing
// dir, except the exempt set. A non-nil error means the check itself could
// not run (a load or type failure), as distinct from findings.
func Module(dir string) ([]Diagnostic, error) {
	ld, err := newLoader(dir)
	if err != nil {
		return nil, err
	}
	targets, err := ld.targets()
	if err != nil {
		return nil, err
	}
	var out []Diagnostic
	for _, t := range targets {
		if slices.Contains(exempt, t.ImportPath) {
			continue
		}
		pkg, err := ld.loadFiles(t.ImportPath, t.Dir, t.GoFiles)
		if err != nil {
			return nil, err
		}
		out = append(out, Check(pkg)...)
	}
	return out, nil
}

// Check reports every construct of pkg that can make a
// result depend on something other than (config, seed):
//
//   - wall-clock reads (time.Now/Since/Until): cycle counts and seeded RNGs
//     are the only clocks a simulator may consult;
//   - the global math/rand generators (rand.Intn, rand.Float64, ...): their
//     stream is shared process-wide, so concurrent sweep jobs interleave
//     draws nondeterministically — every RNG must be a per-run seeded
//     instance (internal/sim.RNG);
//   - ranges over maps whose iteration order can escape the loop: a body
//     that appends to an outer slice, sends on a channel, emits output, or
//     returns a value derived from the iteration sees Go's randomized map
//     order. Iterate det.Keys(m) (internal/det) instead;
//   - environment reads (os.Getenv/LookupEnv/Environ): results must not
//     depend on the invoking shell. internal/runenv is the one sanctioned
//     environment reader.
func Check(pkg *Package) []Diagnostic {
	c := &checker{fset: pkg.Fset, info: pkg.Info}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				c.checkForbiddenFunc(n)
			case *ast.RangeStmt:
				c.checkMapRange(n)
			}
			return true
		})
	}
	return c.diags
}

// checker collects the findings of one Check.
type checker struct {
	fset  *token.FileSet
	info  *types.Info
	diags []Diagnostic
}

func (c *checker) reportf(pos token.Pos, format string, args ...any) {
	c.diags = append(c.diags, Diagnostic{Pos: c.fset.Position(pos), Message: fmt.Sprintf(format, args...)})
}

// randConstructors are the math/rand top-level functions that build local
// generators rather than drawing from the shared global source.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
}

func (c *checker) checkForbiddenFunc(id *ast.Ident) {
	fn := usedFunc(c.info, id)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return // methods (e.g. (*rand.Rand).Intn) are fine: the receiver owns its stream
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			c.reportf(id.Pos(), "call to time.%s: results must depend on (config, seed) only; use cycle counts", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[fn.Name()] {
			c.reportf(id.Pos(), "use of global %s.%s: the process-wide stream breaks sweep determinism; draw from a per-run seeded RNG (internal/sim.RNG)", fn.Pkg().Name(), fn.Name())
		}
	case "os":
		switch fn.Name() {
		case "Getenv", "LookupEnv", "Environ":
			c.reportf(id.Pos(), "call to os.%s: environment reads make results depend on the invoking shell; internal/runenv is the sanctioned environment reader", fn.Name())
		}
	}
}

// checkMapRange flags order-dependent map iteration. The loop body is
// order-dependent when iteration order can escape the loop: an append to
// state declared outside the loop, a channel send, an output call, or a
// return whose value derives from the iteration.
func (c *checker) checkMapRange(rng *ast.RangeStmt) {
	tv, ok := c.info.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}

	// tainted holds objects whose value is (or may be) iteration-order
	// dependent: the range key/value plus every variable declared inside
	// the body.
	tainted := make(map[types.Object]bool)
	addDef := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok {
			if obj := c.info.Defs[id]; obj != nil {
				tainted[obj] = true
			}
		}
	}
	addDef(rng.Key)
	addDef(rng.Value)
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := c.info.Defs[id]; obj != nil {
				tainted[obj] = true
			}
		}
		return true
	})

	var keyObj types.Object
	if id, ok := rng.Key.(*ast.Ident); ok {
		keyObj = c.info.Defs[id]
	}

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			c.reportf(n.Pos(), "channel send inside map iteration: delivery order follows Go's randomized map order; iterate det.Keys instead")
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if refsTainted(c.info, res, tainted) {
					c.reportf(n.Pos(), "return value depends on which map entry is visited first; iterate det.Keys instead")
					break
				}
			}
		case *ast.CallExpr:
			if isBuiltin(c.info, n, "append") {
				if len(n.Args) > 0 && escapesLoop(c.info, ast.Unparen(n.Args[0]), tainted, keyObj) {
					c.reportf(n.Pos(), "append inside map iteration builds a slice in randomized map order; iterate det.Keys instead")
				}
				return true
			}
			path, name := pkgFuncPath(c.info, n)
			if path == "fmt" && outputFmtFuncs[name] || isBuiltin(c.info, n, "print") || isBuiltin(c.info, n, "println") {
				c.reportf(n.Pos(), "output written inside map iteration follows Go's randomized map order; iterate det.Keys instead")
			}
		}
		return true
	})
}

// outputFmtFuncs are the fmt functions that write bytes somewhere (as
// opposed to Sprintf-style formatting into a value).
var outputFmtFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

// escapesLoop reports whether an append destination outlives the loop body
// in iteration order. Appending to a variable declared inside the body is
// fine (rebuilt per entry); so is appending to a map entry indexed by the
// range key (each entry lands in its own slot regardless of visit order).
func escapesLoop(info *types.Info, dest ast.Expr, tainted map[types.Object]bool, keyObj types.Object) bool {
	switch d := dest.(type) {
	case *ast.Ident:
		obj := info.Uses[d]
		if obj == nil {
			obj = info.Defs[d]
		}
		return obj == nil || !tainted[obj]
	case *ast.IndexExpr:
		if keyObj != nil && refsObject(info, d.Index, keyObj) {
			return false
		}
		return true
	default:
		// Selector, deref, ...: state outside the loop.
		return true
	}
}

func refsTainted(info *types.Info, e ast.Expr, tainted map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && tainted[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

func refsObject(info *types.Info, e ast.Expr, want types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == want {
			found = true
		}
		return !found
	})
	return found
}

// usedFunc resolves an identifier to the function object it uses, if any.
func usedFunc(info *types.Info, id *ast.Ident) *types.Func {
	if obj, ok := info.Uses[id]; ok {
		if fn, ok := obj.(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// calleeFunc resolves a call expression to its static callee: a package
// function, or a method on a concrete (non-interface) receiver. Interface
// dispatch and indirect calls through function values return nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return usedFunc(info, fun)
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil
			}
			if types.IsInterface(sel.Recv()) {
				return nil
			}
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		// Qualified identifier (pkg.Func).
		return usedFunc(info, fun.Sel)
	}
	return nil
}

// isBuiltin reports whether the call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// pkgFuncPath returns the import path and name of the package-level
// function (or method) a call resolves to, or "" when unresolvable.
func pkgFuncPath(info *types.Info, call *ast.CallExpr) (path, name string) {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", ""
	}
	return fn.Pkg().Path(), fn.Name()
}
