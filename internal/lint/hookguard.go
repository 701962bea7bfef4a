package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HookGuard returns the analyzer enforcing the hook-free disabled path: every
// call to a probe/audit/perfmon sink method (probe.Probe.Emit/MaybeSample,
// probe.Stage.Emit/EmitSeq/EmitAux, probe.Tracer.Emit, the lsf.AuditSink
// interface, audit.Auditor taps, perfmon.Timer/EngineTimer laps and
// Monitor.OnCycle) must be dominated by a nil check of its receiver — or,
// for a probe.Stage, by the receiver's own Wants(kind), the one branch that
// asks whether any consumer wants the record. The sinks happen to be safe to
// call unguarded today, but the guard is what keeps an un-instrumented run
// from paying a call (and its argument evaluation) per occurrence — and
// keeps that guarantee when a sink later grows state its methods dereference
// unconditionally. This is also what makes -perf provably zero-overhead when
// disabled: the profiler's hot-path entry points cannot be reached without a
// nil guard compiling to a single predictable branch.
func HookGuard() *Analyzer {
	return &Analyzer{
		Name:  "hookguard",
		Doc:   "probe/audit/perfmon sink calls must be dominated by a nil check of the receiver (or its Wants, for a stage)",
		Match: matchPaths(simulationPackages, tracePackages),
		Run:   hookguardRun,
	}
}

func hookguardRun(pass *Pass) {
	w := &guardWalker{pass: pass}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				w.stmts(fd.Body.List, nil)
			}
		}
	}
}

// guardWalker walks a function body tracking, per statement, the set of
// expressions (rendered with types.ExprString) known guarded at that point:
// conjuncts `x != nil` or `x.Wants(k)` of an enclosing if, the else-branch of
// `x == nil`, or everything after a terminating `if x == nil {
// return/panic/... }`.
type guardWalker struct {
	pass *Pass
}

func (w *guardWalker) stmts(list []ast.Stmt, guarded map[string]bool) {
	g := guarded
	for _, s := range list {
		w.stmt(s, g)
		// A terminating nil-guard dominates every later statement.
		if ifs, ok := s.(*ast.IfStmt); ok && ifs.Else == nil && ifs.Init == nil {
			if x, ok := nilEqExpr(ifs.Cond); ok && terminates(ifs.Body.List) {
				g = cloneAdd(g, x)
			}
		}
	}
}

func (w *guardWalker) stmt(s ast.Stmt, g map[string]bool) {
	switch s := s.(type) {
	case nil:
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, g)
		}
		w.expr(s.Cond, g)
		w.stmts(s.Body.List, cloneAdd(g, w.guardExprs(s.Cond)...))
		if s.Else != nil {
			eg := g
			if x, ok := nilEqExpr(s.Cond); ok {
				eg = cloneAdd(g, x)
			}
			if blk, ok := s.Else.(*ast.BlockStmt); ok {
				w.stmts(blk.List, eg)
			} else {
				w.stmt(s.Else, eg)
			}
		}
	case *ast.BlockStmt:
		w.stmts(s.List, g)
	case *ast.ForStmt:
		w.stmt(s.Init, g)
		w.expr(s.Cond, g)
		w.stmt(s.Post, g)
		w.stmts(s.Body.List, g)
	case *ast.RangeStmt:
		w.expr(s.X, g)
		w.stmts(s.Body.List, g)
	case *ast.SwitchStmt:
		w.stmt(s.Init, g)
		w.expr(s.Tag, g)
		for _, c := range s.Body.List {
			w.stmts(c.(*ast.CaseClause).Body, g)
		}
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init, g)
		w.stmt(s.Assign, g)
		for _, c := range s.Body.List {
			w.stmts(c.(*ast.CaseClause).Body, g)
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			w.stmt(cc.Comm, g)
			w.stmts(cc.Body, g)
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, g)
	default:
		// Simple statements: scan their expressions in the current guard set.
		ast.Inspect(s, func(n ast.Node) bool {
			switch n := n.(type) {
			case ast.Stmt:
				if n == s {
					return true
				}
				// Nested statements only occur under FuncLit, handled below.
				return true
			case *ast.FuncLit:
				// Lexical approximation: guards in scope at the closure's
				// definition are assumed to hold when it runs.
				w.stmts(n.Body.List, g)
				return false
			case *ast.CallExpr:
				w.checkCall(n, g)
			}
			return true
		})
	}
}

func (w *guardWalker) expr(e ast.Expr, g map[string]bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.stmts(n.Body.List, g)
			return false
		case *ast.CallExpr:
			w.checkCall(n, g)
		}
		return true
	})
}

func (w *guardWalker) checkCall(call *ast.CallExpr, g map[string]bool) {
	recv, sink, ok := sinkReceiver(w.pass, call)
	if !ok {
		return
	}
	key := types.ExprString(recv)
	if g[key] {
		return
	}
	w.pass.Reportf(call.Pos(), "sink call %s on unguarded receiver %s: dominate it with `if %s != nil { ... }` so a run without hooks stays hook-free", sink, key, key)
}

// auditorSinkMethods are the audit.Auditor taps: the per-record entry of the
// flight recorder and the run/cycle clock.
var auditorSinkMethods = map[string]bool{
	"Record":    true,
	"OnCycle":   true,
	"StartRun":  true,
	"FinishRun": true,
}

// sinkReceiver reports whether the call targets a probe/audit sink method,
// returning the receiver expression to guard. Handles both concrete receivers
// (*probe.Probe, *probe.Tracer, *audit.Auditor) and the lsf.AuditSink
// interface (every method of which is a sink).
//
// Deliberately excluded: probe.Registry/probe.Counter and friends — those
// follow the handle-is-nil-safe pattern where the cheap no-op lives in the
// handle itself and call sites are expected to stay unconditional.
func sinkReceiver(pass *Pass, call *ast.CallExpr) (recv ast.Expr, sink string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	selection, isMethod := pass.Info.Selections[sel]
	if !isMethod || selection.Kind() != types.MethodVal {
		return nil, "", false
	}
	pkgPath, typeName, named := namedRecv(selection.Recv())
	if !named {
		return nil, "", false
	}
	name := sel.Sel.Name
	switch {
	case strings.HasSuffix(pkgPath, "internal/lsf") && typeName == "AuditSink":
		return sel.X, "lsf.AuditSink." + name, true
	case strings.HasSuffix(pkgPath, "internal/probe") && typeName == "Probe" && (name == "Emit" || name == "MaybeSample"):
		return sel.X, "probe.Probe." + name, true
	case strings.HasSuffix(pkgPath, "internal/probe") && typeName == "Stage" && (name == "Emit" || name == "EmitSeq" || name == "EmitAux"):
		return sel.X, "probe.Stage." + name, true
	case strings.HasSuffix(pkgPath, "internal/probe") && typeName == "Tracer" && name == "Emit":
		return sel.X, "probe.Tracer." + name, true
	case strings.HasSuffix(pkgPath, "internal/audit") && typeName == "Auditor" && auditorSinkMethods[name]:
		return sel.X, "audit.Auditor." + name, true
	case strings.HasSuffix(pkgPath, "internal/perfmon") && typeName == "Timer" && (name == "Begin" || name == "Lap"):
		return sel.X, "perfmon.Timer." + name, true
	case strings.HasSuffix(pkgPath, "internal/perfmon") && typeName == "EngineTimer" &&
		(name == "CycleStart" || name == "PhaseDone" || name == "WorkerStart" || name == "WorkerDone"):
		return sel.X, "perfmon.EngineTimer." + name, true
	case strings.HasSuffix(pkgPath, "internal/perfmon") && typeName == "Monitor" && name == "OnCycle":
		// Monitor's registration/handle methods (Timer, Engine, Gauge,
		// SetWorkers, Snapshot) are nil-receiver-safe setup calls, not
		// per-cycle sinks — only the cycle tap needs the guard.
		return sel.X, "perfmon.Monitor." + name, true
	}
	return nil, "", false
}

// guardExprs collects, from the &&-conjuncts of cond, the expressions
// compared `!= nil` and the stages asked `x.Wants(k)`.
func (w *guardWalker) guardExprs(cond ast.Expr) []string {
	var out []string
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
			if x, ok := w.wantsReceiver(call); ok {
				out = append(out, x)
			}
			return
		}
		b, ok := ast.Unparen(e).(*ast.BinaryExpr)
		if !ok {
			return
		}
		switch b.Op {
		case token.LAND:
			walk(b.X)
			walk(b.Y)
		case token.NEQ:
			if x, ok := nilComparand(b); ok {
				out = append(out, x)
			}
		}
	}
	walk(cond)
	return out
}

// wantsReceiver reports whether call is probe.Stage.Wants, returning the
// rendering of the stage asked.
func (w *guardWalker) wantsReceiver(call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Wants" {
		return "", false
	}
	selection, isMethod := w.pass.Info.Selections[sel]
	if !isMethod {
		return "", false
	}
	pkgPath, typeName, named := namedRecv(selection.Recv())
	if !named || !strings.HasSuffix(pkgPath, "internal/probe") || typeName != "Stage" {
		return "", false
	}
	return types.ExprString(ast.Unparen(sel.X)), true
}

// nilEqExpr reports whether cond is exactly `x == nil` (or `nil == x`),
// returning x's rendering.
func nilEqExpr(cond ast.Expr) (string, bool) {
	b, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || b.Op != token.EQL {
		return "", false
	}
	return nilComparand(b)
}

// nilComparand returns the non-nil side of a binary comparison against nil.
func nilComparand(b *ast.BinaryExpr) (string, bool) {
	if isNilIdent(b.Y) {
		return types.ExprString(ast.Unparen(b.X)), true
	}
	if isNilIdent(b.X) {
		return types.ExprString(ast.Unparen(b.Y)), true
	}
	return "", false
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

func cloneAdd(g map[string]bool, keys ...string) map[string]bool {
	if len(keys) == 0 {
		return g
	}
	n := make(map[string]bool, len(g)+len(keys))
	for k := range g {
		n[k] = true
	}
	for _, k := range keys {
		n[k] = true
	}
	return n
}
