package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// clockReadFact marks a function that (transitively) samples the wall
// clock via a banned time-package function. Exported across packages so
// a critical caller three hops away from the time.Now still sees it.
type clockReadFact struct {
	Why string
	At  token.Position
}

func (clockReadFact) AFact() {}

// Clockflow returns the clockflow analyzer — the interprocedural
// generalization of wallclock. wallclock flags *direct* time.Now/After
// calls in critical packages; clockflow flags *calls to functions that
// provably reach the wall clock*, so time can only enter a critical
// package through an injected Clock interface value:
//
//   - a method whose receiver implements a same-package interface named
//     Clock may read the clock (it IS the injection boundary, and the
//     one exemption wallclock makes too);
//   - calls through a Clock interface resolve to the interface method,
//     which has no body and hence no fact — the legitimate path;
//   - a static call that bypasses the interface (sysClock{}.Now(), or a
//     helper that transitively reads the clock) carries the fact and is
//     reported.
func Clockflow() *Analyzer {
	a := &Analyzer{
		Name:     "clockflow",
		Doc:      "requires wall-clock time in critical packages to flow through an injected Clock",
		Critical: true,
	}
	a.Run = runClockflow
	return a
}

// isClockImplMethod reports whether fd is a method whose receiver type
// (or its pointer) implements an interface named "Clock" declared at
// package scope in the same package — the structural signature of an
// injected-clock implementation.
func isClockImplMethod(pkg *types.Package, info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	obj := pkg.Scope().Lookup("Clock")
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return false
	}
	iface, ok := tn.Type().Underlying().(*types.Interface)
	if !ok {
		return false
	}
	fn, ok := info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	return types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface)
}

func runClockflow(pass *Pass) {
	info := pass.TypesInfo

	// Direct facts: functions whose own body calls a banned time
	// function.
	for _, fnKey := range pass.Graph.CallerKeys() {
		fn := pass.Graph.Funcs[fnKey]
		fd := pass.Graph.Decls[fnKey]
		var why string
		var at token.Pos
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if why != "" {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, ok := pkgFunc(info, call, "time"); ok && wallclockBanned[name] {
				why, at = "time."+name, call.Pos()
				return false
			}
			return true
		})
		if why != "" {
			pass.Facts.ExportFuncFact(fn, clockReadFact{Why: why, At: pass.Fset.Position(at)})
		}
	}

	// Same-package fixpoint (imported facts already present).
	pass.Graph.Fixpoint(func(caller *types.Func, e CallEdge) bool {
		var cf clockReadFact
		if !pass.Facts.ImportFuncFact(e.Callee, &cf) || pass.Facts.HasFuncFact(caller, clockReadFact{}) {
			return false
		}
		pass.Facts.ExportFuncFact(caller, clockReadFact{
			Why: fmt.Sprintf("via %s: %s", shortFuncKey(e.CalleeKey), cf.Why),
			At:  cf.At,
		})
		return true
	})

	// Report: calls from non-exempt functions to fact-carrying module
	// functions. Direct time.* calls stay wallclock's finding — the two
	// analyzers partition the space instead of double-reporting.
	for _, fnKey := range pass.Graph.CallerKeys() {
		fd := pass.Graph.Decls[fnKey]
		if isClockImplMethod(pass.Pkg, info, fd) {
			continue
		}
		for _, e := range pass.Graph.Edges[fnKey] {
			if e.Callee.Pkg() != nil && e.Callee.Pkg().Path() == "time" {
				continue
			}
			var cf clockReadFact
			if !pass.Facts.ImportFuncFact(e.Callee, &cf) {
				continue
			}
			pass.Reportf(e.Pos,
				"call to %s reaches the wall clock (%s at %s) outside the injected Clock — thread a Clock value instead (//mcvet:ignore clockflow <reason> to override)",
				shortFuncKey(e.CalleeKey), cf.Why, cf.At)
		}
	}
}
