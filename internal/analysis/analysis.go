// Package analysis is mcvet's lint framework: a small, stdlib-only
// reimplementation of the golang.org/x/tools/go/analysis vocabulary
// (Analyzer, Pass, Diagnostic) plus the mcpaging-specific analyzers
// that mechanically enforce the repo's determinism and hot-path
// invariants. See docs/lint.md for the analyzer catalogue and the
// annotation conventions.
//
// The framework exists because the repo is stdlib-only by charter: the
// x/tools module is not a dependency, so packages are loaded with
// `go list -export -json` and type-checked through the standard
// go/importer export-data path instead of go/packages.
//
// Two comment directives drive the suite:
//
//	//mcvet:ignore <analyzer> <reason>
//
// on (or immediately above) a flagged line suppresses that analyzer's
// diagnostics for the line. The reason is mandatory: a bare ignore is
// itself reported.
//
//	//mcpaging:hotpath
//
// in a function's doc comment opts the function into the hotalloc
// allocation checks.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //mcvet:ignore directives.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Critical restricts the analyzer's *diagnostics* to
	// determinism-critical packages (see IsCritical). Non-critical
	// analyzers report on every package. Under RunAll a Critical
	// analyzer still runs on non-critical packages in facts-only mode:
	// its diagnostics are discarded but the facts it exports remain,
	// so interprocedural properties propagate through non-critical
	// code into critical callers.
	Critical bool
	// Run inspects the package behind pass and reports findings via
	// pass.Reportf.
	Run func(pass *Pass)
	// Finish, when set, runs once after every package of a RunAll
	// sweep, deriving whole-suite diagnostics (e.g. lock-order cycles)
	// from the accumulated facts. Positions in the returned
	// diagnostics must be pre-rendered token.Position values carried
	// through the facts — a token.Pos is meaningless once its package
	// pass is over.
	Finish func(facts *FactStore) []Diagnostic
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// PkgPath is the package's import path. Fixture packages under
	// testdata keep their fixture path here, so analyzers must not
	// assume module-rooted paths.
	PkgPath string
	// Facts is the suite-wide fact store. Packages are analyzed in
	// dependency order, so facts exported while analyzing an import
	// are visible here. Never nil.
	Facts *FactStore
	// Graph is this package's flow-insensitive call graph. Never nil.
	Graph *CallGraph

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, located in file coordinates.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// criticalPrefixes are the determinism-critical import paths: packages
// whose output feeds golden files, content-addressed cache keys, or
// paper-claim tables, and must therefore be bit-for-bit reproducible.
// Matching is by path prefix, so subpackages inherit criticality.
var criticalPrefixes = []string{
	"mcpaging/internal/cache",
	"mcpaging/internal/capacity",
	"mcpaging/internal/core",
	"mcpaging/internal/sim",
	"mcpaging/internal/sweep",
	"mcpaging/internal/telemetry",
	"mcpaging/internal/strategyspec",
	"mcpaging/internal/offline",
	"mcpaging/internal/server",
	"mcpaging/internal/workload",
	"mcpaging/internal/verify",
	"mcpaging/internal/fleet",
	"mcpaging/internal/par",
}

// IsCritical reports whether pkgPath is determinism-critical, i.e.
// whether Critical analyzers apply to it.
func IsCritical(pkgPath string) bool {
	for _, p := range criticalPrefixes {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}

// newPass builds one analyzer's view of one package.
func newPass(a *Analyzer, pkg *Package, facts *FactStore, graph *CallGraph) *Pass {
	return &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.TypesInfo,
		PkgPath:   pkg.PkgPath,
		Facts:     facts,
		Graph:     graph,
	}
}

// RunAnalyzer runs one analyzer over a loaded package and returns its
// diagnostics with //mcvet:ignore suppressions already applied. It does
// not apply Critical scoping — that is the suite driver's job — so
// fixture tests can exercise critical analyzers on arbitrary packages.
func RunAnalyzer(a *Analyzer, pkg *Package) []Diagnostic {
	return RunAnalyzerPkgs(a, []*Package{pkg})
}

// RunAnalyzerPkgs runs one analyzer over several packages in order with
// a shared fact store — the multi-package fixture harness. Packages
// must be given in dependency order so facts flow downstream. Critical
// scoping is not applied, Finish diagnostics are included, and ignores
// are honored across all the packages.
func RunAnalyzerPkgs(a *Analyzer, pkgs []*Package) []Diagnostic {
	facts := NewFactStore()
	idx := make(map[string][]*ignoreDirective)
	var out []Diagnostic
	for _, pkg := range pkgs {
		pkgIdx, _ := ignoreIndexFor(pkg)
		for k, v := range pkgIdx {
			idx[k] = append(idx[k], v...)
		}
		pass := newPass(a, pkg, facts, BuildCallGraph(pkg))
		a.Run(pass)
		out = append(out, filterIgnored(pass.diags, idx)...)
	}
	if a.Finish != nil {
		out = append(out, filterIgnored(a.Finish(facts), idx)...)
	}
	return out
}

// RunSuite runs every applicable analyzer of the suite over one package
// in isolation (Critical analyzers only on critical packages), plus the
// directive hygiene check, and returns the surviving diagnostics sorted
// by position. Interprocedural facts do not cross packages here — use
// RunAll for whole-program analysis.
func RunSuite(suite []*Analyzer, pkg *Package) []Diagnostic {
	var out []Diagnostic
	idx, _ := ignoreIndexFor(pkg)
	facts := NewFactStore()
	graph := BuildCallGraph(pkg)
	for _, a := range suite {
		pass := newPass(a, pkg, facts, graph)
		a.Run(pass)
		if a.Critical && !IsCritical(pkg.PkgPath) {
			continue
		}
		out = append(out, filterIgnored(pass.diags, idx)...)
	}
	out = append(out, checkDirectives(suite, pkg)...)
	sortDiags(out)
	return out
}

// RunAll is mcvet's whole-program driver: it runs the suite over every
// package in dependency order with one shared fact store, so
// interprocedural analyzers see the facts of everything a package
// imports. Per package it runs *every* analyzer — Critical analyzers
// on non-critical packages and the whole suite on dep-only packages
// run in facts-only mode (diagnostics discarded, exports kept) — then
// applies ignore directives, directive hygiene, Finish passes, and the
// stale-directive check: a well-formed //mcvet:ignore that suppressed
// nothing anywhere in the sweep is itself reported.
func RunAll(suite []*Analyzer, pkgs []*Package) []Diagnostic {
	facts := NewFactStore()
	known := make(map[string]bool, len(suite))
	for _, a := range suite {
		known[a.Name] = true
	}
	var out []Diagnostic
	mergedIdx := make(map[string][]*ignoreDirective)
	var directives []*ignoreDirective
	reportable := make(map[string]bool)
	for _, pkg := range pkgs {
		graph := BuildCallGraph(pkg)
		idx, dirs := ignoreIndexFor(pkg)
		critical := IsCritical(pkg.PkgPath)
		var raw []Diagnostic
		for _, a := range suite {
			pass := newPass(a, pkg, facts, graph)
			a.Run(pass)
			if pkg.DepOnly || (a.Critical && !critical) {
				continue // facts-only: keep exports, drop findings
			}
			raw = append(raw, pass.diags...)
		}
		if pkg.DepOnly {
			continue
		}
		out = append(out, filterIgnored(raw, idx)...)
		out = append(out, checkDirectives(suite, pkg)...)
		for k, v := range idx {
			mergedIdx[k] = append(mergedIdx[k], v...)
		}
		directives = append(directives, dirs...)
		for _, f := range pkg.Files {
			reportable[pkg.Fset.Position(f.Pos()).Filename] = true
		}
	}
	for _, a := range suite {
		if a.Finish == nil {
			continue
		}
		for _, d := range a.Finish(facts) {
			if !reportable[d.Pos.Filename] || suppressed(d, mergedIdx) {
				continue
			}
			out = append(out, d)
		}
	}
	// Stale directives: hygiene problems are already reported above;
	// here a directive that *could* suppress but matched nothing in the
	// entire sweep is flagged so dead annotations cannot accumulate.
	for _, dir := range directives {
		if dir.analyzer == "" || !known[dir.analyzer] || dir.reason == "" || dir.used {
			continue
		}
		out = append(out, Diagnostic{Pos: dir.pos, Analyzer: "mcvet",
			Message: fmt.Sprintf("mcvet:ignore %s directive suppresses nothing — drop it", dir.analyzer)})
	}
	sortDiags(out)
	return out
}

func sortDiags(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
}

// DefaultSuite returns the standard mcvet analyzer suite: the five
// per-function checks from the original mcvet plus the five
// interprocedural concurrency/determinism analyzers.
func DefaultSuite() []*Analyzer {
	return []*Analyzer{
		Detmap(),
		Wallclock(DefaultWallclockAllow()),
		Globalrand(),
		Hotalloc(),
		Obsguard(),
		Lockheld(),
		Goleak(),
		Ctxflow(),
		Seedflow(),
		Clockflow(),
	}
}

// ignoreDirective is one parsed //mcvet:ignore comment. used flips when
// the directive suppresses a diagnostic, feeding the stale check.
type ignoreDirective struct {
	analyzer string
	reason   string
	pos      token.Position
	used     bool
}

const ignorePrefix = "//mcvet:ignore"

// ignoreIndexFor collects the package's ignore directives: the index is
// keyed by file name and the line a directive suppresses (its own line
// and the line below, so both trailing and standalone-line placements
// work); the slice lists each directive once, in source order.
func ignoreIndexFor(pkg *Package) (map[string][]*ignoreDirective, []*ignoreDirective) {
	idx := make(map[string][]*ignoreDirective)
	var all []*ignoreDirective
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, ignorePrefix))
				name, reason, _ := strings.Cut(rest, " ")
				pos := pkg.Fset.Position(c.Pos())
				d := &ignoreDirective{analyzer: name, reason: strings.TrimSpace(reason), pos: pos}
				idx[key(pos.Filename, pos.Line)] = append(idx[key(pos.Filename, pos.Line)], d)
				idx[key(pos.Filename, pos.Line+1)] = append(idx[key(pos.Filename, pos.Line+1)], d)
				all = append(all, d)
			}
		}
	}
	return idx, all
}

func key(file string, line int) string { return fmt.Sprintf("%s:%d", file, line) }

// filterIgnored drops diagnostics whose line carries (or follows) a
// matching //mcvet:ignore directive with a non-empty reason, marking
// the directives that earned their keep.
func filterIgnored(diags []Diagnostic, idx map[string][]*ignoreDirective) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if suppressed(d, idx) {
			continue
		}
		out = append(out, d)
	}
	return out
}

func suppressed(d Diagnostic, idx map[string][]*ignoreDirective) bool {
	hit := false
	for _, dir := range idx[key(d.Pos.Filename, d.Pos.Line)] {
		if dir.analyzer == d.Analyzer && dir.reason != "" {
			dir.used = true
			hit = true
		}
	}
	return hit
}

// checkDirectives enforces directive hygiene: every //mcvet:ignore must
// name a known analyzer and carry a reason.
func checkDirectives(suite []*Analyzer, pkg *Package) []Diagnostic {
	known := make(map[string]bool, len(suite))
	for _, a := range suite {
		known[a.Name] = true
	}
	var out []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, ignorePrefix))
				name, reason, _ := strings.Cut(rest, " ")
				pos := pkg.Fset.Position(c.Pos())
				switch {
				case name == "":
					out = append(out, Diagnostic{Pos: pos, Analyzer: "mcvet",
						Message: "mcvet:ignore directive names no analyzer"})
				case !known[name]:
					out = append(out, Diagnostic{Pos: pos, Analyzer: "mcvet",
						Message: fmt.Sprintf("mcvet:ignore directive names unknown analyzer %q", name)})
				case strings.TrimSpace(reason) == "":
					out = append(out, Diagnostic{Pos: pos, Analyzer: "mcvet",
						Message: fmt.Sprintf("mcvet:ignore %s directive is missing a reason", name)})
				}
			}
		}
	}
	return out
}
