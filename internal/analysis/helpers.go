package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// hotpathDirective marks a function as allocation-sensitive for the
// hotalloc analyzer.
const hotpathDirective = "//mcpaging:hotpath"

// hasHotpathDirective reports whether the function's doc comment
// carries the //mcpaging:hotpath directive.
func hasHotpathDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == hotpathDirective || strings.HasPrefix(c.Text, hotpathDirective+" ") {
			return true
		}
	}
	return false
}

// inspectStack walks root in source order, calling f with every node
// and the stack of its ancestors (outermost first, root excluded).
// Returning false from f skips the node's children.
func inspectStack(root ast.Node, f func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := f(n, stack)
		if descend {
			stack = append(stack, n)
		}
		return descend
	})
}

// pkgFunc resolves a call's callee to a package-level function of the
// named import path (e.g. "time", "math/rand") and returns its name.
func pkgFunc(info *types.Info, call *ast.CallExpr, pkgPaths ...string) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", false
	}
	for _, p := range pkgPaths {
		if pn.Imported().Path() == p {
			return sel.Sel.Name, true
		}
	}
	return "", false
}

// isBuiltin reports whether the call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// isInterface reports whether t's underlying type is an interface.
func isInterface(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// pointerShaped reports whether values of t fit an interface's data
// word without a heap copy: pointers, channels, maps, funcs and unsafe
// pointers. Converting such a value to an interface does not allocate.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

// exprString renders e compactly for diagnostics and for structural
// comparison of guard expressions.
func exprString(e ast.Expr) string { return types.ExprString(e) }
