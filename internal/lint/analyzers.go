package lint

import (
	"go/ast"
	"go/types"
)

// All returns every loftcheck analyzer in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism(),
	}
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
// back into simulation state, so profiled runs remain byte-identical.
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
