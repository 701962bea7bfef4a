package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// StagePurity returns the analyzer proving the parallel byte-identity
// contract structurally: code running inside the parallel compute phase must
// not touch shared, order-sensitive state directly. The compute-phase entry
// points are functions annotated //loft:computephase plus every concrete
// Tick method registered through AddTicker on a sim engine or on the netsim
// harness; the analyzer closes over the static per-package
// call graph from those seeds (a //loft:commitphase marker stops propagation
// — that is the sanctioned serial side) and rejects, inside the closure:
//
//   - calls to serial-only sinks: probe.Probe.Emit/MaybeSample,
//     probe.Stage.Drain, probe.Tracer.Emit, probe.Registry.Sample,
//     probe.Counter.Inc/Add, the audit.Auditor taps (Record among them), the
//     shared stats reservoir mutators (Latency/FlowLatency/Throughput/
//     Histogram observations consume per-run RNG draws in call order), and
//     perfmon.Monitor.OnCycle. The staged surfaces — probe.Stage.Emit/
//     EmitSeq/EmitAux, per-node delta buffers — stay allowed: they buffer
//     locally and replay at the barrier;
//   - the global math/rand generators (also caught by determinism, but a
//     compute-phase draw additionally breaks cross-worker replay);
//   - writes to struct fields annotated //loft:commitonly (assignment,
//     compound assignment, ++/--, delete): those fields may be read during
//     compute (they are stable between barriers) but only the serial commit
//     phase may mutate them.
//
// What this buys: a future contributor cannot silently reintroduce a direct
// shared-state effect into node ticking — the convention TestParallelDeterminism*
// checks at run time on exercised paths becomes a compile-gate on all paths.
func StagePurity() *Analyzer {
	return &Analyzer{
		Name:  "stagepurity",
		Doc:   "no serial-only sinks or //loft:commitonly writes reachable from parallel compute-phase entry points",
		Match: matchPaths(simulationPackages),
		Run:   stagepurityRun,
	}
}

func stagepurityRun(pass *Pass) {
	decls := funcDecls(pass)
	commit := make(map[*types.Func]bool)
	var seeds []*types.Func
	seen := make(map[*types.Func]bool)
	addSeed := func(fn *types.Func) {
		if fn == nil || seen[fn] {
			return
		}
		if _, declared := decls[fn]; !declared {
			return
		}
		seen[fn] = true
		seeds = append(seeds, fn)
	}
	// Marker pass in declaration order, so multi-seed reachability attributes
	// deterministically.
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.Info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			if funcMarker(fd, "//loft:commitphase") {
				commit[obj] = true
				continue
			}
			if funcMarker(fd, "//loft:computephase") {
				addSeed(obj)
			}
		}
	}
	// Auto-seeding: anything this package registers on an engine runs in the
	// compute phase whether or not its author remembered the annotation.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				addSeed(parallelRegistration(pass, call))
			}
			return true
		})
	}
	if len(seeds) == 0 {
		return
	}

	fields := commitOnlyFields(pass)
	for fn, seed := range callClosure(pass, seeds, decls, commit) {
		checkComputeFunc(pass, decls[fn], seed, fields)
	}
}

// parallelRegistration resolves an engine registration — AddTicker on
// either sim kernel, on the sim.Engine interface, or on the netsim.Harness
// every network registers through (directly, or promoted through the
// Network that embeds it) — to the concrete Tick method it registers,
// looked up on the static type of the component argument.
func parallelRegistration(pass *Pass, call *ast.CallExpr) *types.Func {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "AddTicker" || len(call.Args) < 2 {
		return nil
	}
	selection, isMethod := pass.Info.Selections[sel]
	if !isMethod || selection.Kind() != types.MethodVal {
		return nil
	}
	// The method's own receiver, not the selector operand's type: a promoted
	// Harness method is selected on the embedding Network.
	sig, _ := selection.Obj().Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return nil
	}
	pkgPath, typeName, named := namedRecv(sig.Recv().Type())
	if !named {
		return nil
	}
	switch {
	case strings.HasSuffix(pkgPath, "internal/sim") && (typeName == "ParallelKernel" || typeName == "Kernel" || typeName == "Engine"):
	case strings.HasSuffix(pkgPath, "internal/netsim") && typeName == "Harness":
	default:
		return nil
	}
	tv, ok := pass.Info.Types[call.Args[1]]
	if !ok || tv.Type == nil {
		return nil
	}
	obj, _, _ := types.LookupFieldOrMethod(tv.Type, true, pass.Pkg, "Tick")
	if fn, ok := obj.(*types.Func); ok && fn.Pkg() == pass.Pkg {
		return fn
	}
	return nil
}

// commitOnlyFields collects the struct fields annotated //loft:commitonly.
func commitOnlyFields(pass *Pass) map[types.Object]bool {
	out := make(map[types.Object]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if !fieldMarker(field, "//loft:commitonly") {
					continue
				}
				for _, name := range field.Names {
					if obj := pass.Info.Defs[name]; obj != nil {
						out[obj] = true
					}
				}
			}
			return true
		})
	}
	return out
}

// fieldMarker reports whether a struct field's doc or line comment carries
// the given //loft:... marker on a line of its own.
func fieldMarker(field *ast.Field, marker string) bool {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if strings.TrimSpace(c.Text) == marker {
				return true
			}
		}
	}
	return false
}

// checkComputeFunc flags serial-only effects inside one compute-phase
// function.
func checkComputeFunc(pass *Pass, fd *ast.FuncDecl, seed *types.Func, fields map[types.Object]bool) {
	reportWrite := func(pos ast.Node, obj types.Object) {
		pass.Reportf(pos.Pos(), "write to //loft:commitonly field %s in the parallel compute phase (reachable from compute-phase entry %s): stage a delta and apply it from the commit phase", obj.Name(), seed.Name())
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // closures run on their own schedule
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if obj := baseFieldObj(pass, lhs); obj != nil && fields[obj] {
					reportWrite(lhs, obj)
				}
			}
		case *ast.IncDecStmt:
			if obj := baseFieldObj(pass, n.X); obj != nil && fields[obj] {
				reportWrite(n.X, obj)
			}
		case *ast.CallExpr:
			if isBuiltin(pass.Info, n, "delete") && len(n.Args) > 0 {
				if obj := baseFieldObj(pass, n.Args[0]); obj != nil && fields[obj] {
					reportWrite(n.Args[0], obj)
				}
				return true
			}
			if sink, ok := serialOnlySink(pass, n); ok {
				pass.Reportf(n.Pos(), "serial-only sink %s called in the parallel compute phase (reachable from compute-phase entry %s): emit through the staged surface (probe.Stage, per-node buffers) and replay it from the commit phase", sink, seed.Name())
			}
		}
		return true
	})
}

// baseFieldObj peels indexing, derefs and parens off an lvalue and returns
// the struct-field object at its base selector (x.f, x.f[i], *x.f → f), or
// nil when the lvalue does not bottom out in a field.
func baseFieldObj(pass *Pass, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			obj := pass.Info.Uses[x.Sel]
			if v, ok := obj.(*types.Var); ok && v.IsField() {
				return v
			}
			return nil
		default:
			return nil
		}
	}
}

// serialOnlySink reports whether the call targets a method that may only run
// in the serial commit phase, with its diagnostic name.
func serialOnlySink(pass *Pass, call *ast.CallExpr) (string, bool) {
	// Package-level global RNG draws first (no receiver).
	if fn := calleeFunc(pass.Info, call); fn != nil && fn.Pkg() != nil {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
			switch fn.Pkg().Path() {
			case "math/rand", "math/rand/v2":
				if !randConstructors[fn.Name()] {
					return fn.Pkg().Name() + "." + fn.Name(), true
				}
			}
		}
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	selection, isMethod := pass.Info.Selections[sel]
	if !isMethod || selection.Kind() != types.MethodVal {
		return "", false
	}
	pkgPath, typeName, named := namedRecv(selection.Recv())
	if !named {
		return "", false
	}
	name := sel.Sel.Name
	switch {
	case strings.HasSuffix(pkgPath, "internal/probe") && typeName == "Probe" && (name == "Emit" || name == "MaybeSample"):
		return "probe.Probe." + name, true
	case strings.HasSuffix(pkgPath, "internal/probe") && typeName == "Stage" && name == "Drain":
		return "probe.Stage." + name, true
	case strings.HasSuffix(pkgPath, "internal/probe") && typeName == "Tracer" && name == "Emit":
		return "probe.Tracer." + name, true
	case strings.HasSuffix(pkgPath, "internal/probe") && typeName == "Registry" && name == "Sample":
		return "probe.Registry." + name, true
	case strings.HasSuffix(pkgPath, "internal/probe") && typeName == "Counter" && (name == "Inc" || name == "Add"):
		return "probe.Counter." + name, true
	case strings.HasSuffix(pkgPath, "internal/audit") && typeName == "Auditor" && auditorSinkMethods[name]:
		return "audit.Auditor." + name, true
	case strings.HasSuffix(pkgPath, "internal/stats") && typeName == "Latency" && name == "Observe":
		return "stats.Latency." + name, true
	case strings.HasSuffix(pkgPath, "internal/stats") && typeName == "FlowLatency" && name == "Observe":
		return "stats.FlowLatency." + name, true
	case strings.HasSuffix(pkgPath, "internal/stats") && typeName == "Throughput" && (name == "Observe" || name == "ObserveN" || name == "Close"):
		return "stats.Throughput." + name, true
	case strings.HasSuffix(pkgPath, "internal/stats") && typeName == "Histogram" && name == "Observe":
		return "stats.Histogram." + name, true
	case strings.HasSuffix(pkgPath, "internal/perfmon") && typeName == "Monitor" && name == "OnCycle":
		return "perfmon.Monitor." + name, true
	}
	return "", false
}
