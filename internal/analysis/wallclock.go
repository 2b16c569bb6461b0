package analysis

import "go/ast"

// wallclockBanned are the time-package functions that read the wall
// clock or schedule against it. time.Duration arithmetic and constants
// are fine — only sampling the clock breaks reproducibility.
var wallclockBanned = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"AfterFunc": true,
}

// Wallclock returns the wallclock analyzer: it forbids reading the
// wall clock in determinism-critical packages, so results, manifests
// and exports stay timestamp-free and byte-reproducible. The one
// exemption is structural: the methods of a type implementing a
// same-package `Clock` interface are the clock-injection boundary, and
// everything else reads time through that interface.
func Wallclock() *Analyzer {
	a := &Analyzer{
		Name:     "wallclock",
		Doc:      "forbids wall-clock reads in determinism-critical packages",
		Critical: true,
	}
	a.Run = func(pass *Pass) {
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && (fd.Body == nil || isClockImplMethod(pass.Pkg, pass.TypesInfo, fd)) {
					continue
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if name, ok := pkgFunc(pass.TypesInfo, call, "time"); ok && wallclockBanned[name] {
						pass.Reportf(call.Pos(),
							"time.%s reads the wall clock in a determinism-critical package; results and manifests must be timestamp-free (//mcvet:ignore wallclock <reason> to override)",
							name)
					}
					return true
				})
			}
		}
	}
	return a
}
