package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// All returns every loftcheck analyzer in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism(),
		HookGuard(),
		StagePurity(),
	}
}

// ByName returns the named analyzers in order. An empty, repeated or
// unknown name is an error.
func ByName(names []string) ([]*Analyzer, error) {
	all := All()
	var out []*Analyzer
	for i, n := range names {
		k := slices.IndexFunc(all, func(a *Analyzer) bool { return a.Name == n })
		switch {
		case n == "":
			return nil, fmt.Errorf("empty analyzer name in %q", strings.Join(names, ","))
		case slices.Contains(names[:i], n):
			return nil, fmt.Errorf("analyzer %q named twice", n)
		case k < 0:
			return nil, fmt.Errorf("unknown analyzer %q (try -list)", n)
		}
		out = append(out, all[k])
	}
	return out, nil
}

// simulationPackages are the packages whose execution must be bit-exact
// across reruns and worker counts: the cycle kernels, schedulers, traffic
// generators and the experiment/sweep drivers above them.
var simulationPackages = []string{
	"loft/internal/lsf",
	"loft/internal/loft",
	"loft/internal/gsf",
	"loft/internal/netsim",
	"loft/internal/sim",
	"loft/internal/sweep",
	"loft/internal/exp",
	"loft/internal/traffic",
	"loft/internal/core",
}

// observabilityPackages additionally feed exported artifacts (JSONL/CSV
// traces, Chrome trace JSON, audit snapshots, heatmaps) that goldens and
// baseline diffs compare byte-for-byte, so their iteration order matters
// just as much.
var observabilityPackages = []string{
	"loft/internal/probe",
	"loft/internal/audit",
	"loft/internal/stats",
	"loft/internal/topo",
}

// tracePackages are the offline analysis layer: manifest and diff output
// must be byte-stable so self-diffs report zero delta and artifact checksums
// reproduce, which makes them determinism-checked like the exporters.
// internal/runenv and internal/perfmon are deliberately absent from every
// list — they are the two places below the CLIs allowed to read wall time
// (runenv for provenance, perfmon for stage timers); neither feeds values
// back into simulation state, so profiled runs remain byte-identical. The
// perfmon sink calls made from simulation packages still go through
// hookguard, because those call sites live in the listed packages.
var tracePackages = []string{
	"loft/internal/trace",
	"loft/internal/runio",
	"loft/cmd/lofttrace",
}

func matchPaths(lists ...[]string) func(string) bool {
	set := make(map[string]bool)
	for _, l := range lists {
		for _, p := range l {
			set[p] = true
		}
	}
	return func(path string) bool { return set[path] }
}

// --- shared AST/type helpers ---

// funcMarker reports whether decl's doc comment carries the given
// //loft:... marker on a line of its own.
func funcMarker(decl *ast.FuncDecl, marker string) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		if strings.TrimSpace(c.Text) == marker {
			return true
		}
	}
	return false
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

// namedRecv resolves the static receiver type of a method call to its
// defining package path and type name (pointers dereferenced), or ok=false
// for non-named receivers.
func namedRecv(t types.Type) (pkgPath, name string, ok bool) {
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil {
		return "", "", false
	}
	return named.Obj().Pkg().Path(), named.Obj().Name(), true
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

// funcDecls collects every function declaration of the package with a body,
// keyed by its defining object.
func funcDecls(pass *Pass) map[*types.Func]*ast.FuncDecl {
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, _ := pass.Info.Defs[fd.Name].(*types.Func); obj != nil {
				decls[obj] = fd
			}
		}
	}
	return decls
}

// callClosure computes the static per-package call-graph closure from the
// seed functions, returning root[f] = the seed that makes f reachable (for
// diagnostic provenance). Functions in stop are not entered and do not
// propagate. Interface dispatch and calls through function values are not
// followed (calleeFunc returns nil for them); cross-package callees are out
// of scope — each package declares its own entry points.
func callClosure(pass *Pass, seeds []*types.Func, decls map[*types.Func]*ast.FuncDecl, stop map[*types.Func]bool) map[*types.Func]*types.Func {
	root := make(map[*types.Func]*types.Func)
	queue := append([]*types.Func(nil), seeds...)
	for _, s := range seeds {
		root[s] = s
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		ast.Inspect(decls[fn].Body, func(n ast.Node) bool {
			if _, isLit := n.(*ast.FuncLit); isLit {
				return false // closures run on their own schedule
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(pass.Info, call)
			if callee == nil || callee.Pkg() != pass.Pkg || stop[callee] {
				return true
			}
			if _, declared := decls[callee]; !declared {
				return true
			}
			if _, seen := root[callee]; !seen {
				root[callee] = root[fn]
				queue = append(queue, callee)
			}
			return true
		})
	}
	return root
}

// terminates reports whether a statement list unconditionally transfers
// control out of the enclosing block (return, panic, continue, break,
// goto): the guard `if x == nil { return }` dominates everything after it.
func terminates(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch s := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return terminates(s.List)
	}
	return false
}
