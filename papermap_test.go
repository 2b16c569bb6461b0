package mcpaging_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"unicode"
)

// moduleIndex is what docs/paper-map.md's names resolve against, read
// with go/parser from the module's source: each package's top-level
// names and its types' fields and methods, and every Test function.
type moduleIndex struct {
	decls   map[string]map[string]bool // package name → top-level names
	members map[string]map[string]bool // package name → "Type.Member"
	tests   map[string]bool
}

func indexModule(t *testing.T) moduleIndex {
	t.Helper()
	idx := moduleIndex{decls: map[string]map[string]bool{}, members: map[string]map[string]bool{}, tests: map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir // another module, fixtures, or tooling
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Test") {
					idx.tests[fn.Name.Name] = true
				}
			}
			return nil
		}
		idx.add(f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// add records a non-test file's declarations under its package name.
func (idx moduleIndex) add(f *ast.File) {
	pkg := f.Name.Name
	if idx.decls[pkg] == nil {
		idx.decls[pkg], idx.members[pkg] = map[string]bool{}, map[string]bool{}
	}
	decls, members := idx.decls[pkg], idx.members[pkg]
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				decls[d.Name.Name] = true
				continue
			}
			members[recvType(d.Recv.List[0].Type)+"."+d.Name.Name] = true
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						decls[n.Name] = true
					}
				case *ast.TypeSpec:
					decls[s.Name.Name] = true
					var fields *ast.FieldList
					switch ty := s.Type.(type) {
					case *ast.StructType:
						fields = ty.Fields
					case *ast.InterfaceType:
						fields = ty.Methods
					}
					if fields == nil {
						continue
					}
					for _, fl := range fields.List {
						for _, n := range fl.Names {
							members[s.Name.Name+"."+n.Name] = true
						}
					}
				}
			}
		}
	}
}

// recvType names a method's receiver type: T for T, *T, T[P] or *T[P].
func recvType(e ast.Expr) string {
	switch r := e.(type) {
	case *ast.StarExpr:
		return recvType(r.X)
	case *ast.IndexExpr:
		return recvType(r.X)
	case *ast.IndexListExpr:
		return recvType(r.X)
	case *ast.Ident:
		return r.Name
	}
	return ""
}

// resolves reports whether one name, glob (a trailing *) or brace
// alternative (Name{,Suffix}) of the paper map names something in the
// module. A name starting in lower case is package-qualified; one
// starting in upper case may be declared in any package, and a bare one
// may be a method or field there (`MaxGroups`).
func (idx moduleIndex) resolves(name string) bool {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		for _, alt := range strings.Split(strings.TrimSuffix(name[i+1:], "}"), ",") {
			if !idx.resolves(name[:i] + alt) {
				return false
			}
		}
		return true
	}
	var pkgs []string
	sel, qualified := name, unicode.IsLower(rune(name[0]))
	if qualified {
		pkg, rest, _ := strings.Cut(name, ".")
		if _, ok := idx.decls[pkg]; !ok || rest == "" {
			return ok
		}
		pkgs, sel = []string{pkg}, rest
	} else {
		for pkg := range idx.decls {
			pkgs = append(pkgs, pkg)
		}
	}
	prefix, glob := strings.CutSuffix(sel, "*")
	for _, pkg := range pkgs {
		if strings.Contains(sel, ".") {
			if idx.members[pkg][sel] {
				return true
			}
			continue
		}
		for n := range idx.decls[pkg] {
			if n == prefix || glob && strings.HasPrefix(n, prefix) {
				return true
			}
		}
		if !qualified {
			for m := range idx.members[pkg] {
				if strings.HasSuffix(m, "."+sel) {
					return true
				}
			}
		}
	}
	return false
}

var (
	// backticked is one `...` span of the paper map.
	backticked = regexp.MustCompile("`([^`]+)`")
	// goName is a span the map uses to name Go code: a package,
	// identifier or selector, with an optional glob or brace suffix.
	goName = regexp.MustCompile(`^[A-Za-z_]\w*(\.[A-Za-z_]\w*)*(\*|\{[\w,]*\})?$`)
	// repoPath is a span naming a file or directory of the repository.
	repoPath = regexp.MustCompile(`^[\w.-]+(/[\w.-]+)+$`)
	// claimRow is a table row whose first cell names one of the paper's
	// definitions, lemmas, theorems or algorithms.
	claimRow = regexp.MustCompile(`^\|[^|]*\b(Definition|Lemma|Theorem|Algorithm) `)
)

// TestPaperMapNamesResolve keeps docs/paper-map.md from naming code
// that is gone: every backticked path must exist, every Test name must
// be a test function, and every other Go name (pkg.Name,
// pkg.Type.Member, Type.Member or a bare Name) must resolve against the
// module's source. A row for a definition, lemma, theorem or algorithm
// must also name at least one test that checks it.
func TestPaperMapNamesResolve(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("docs", "paper-map.md"))
	if err != nil {
		t.Fatal(err)
	}
	idx := indexModule(t)
	checked := 0
	for i, line := range strings.Split(string(raw), "\n") {
		tested := false
		for _, m := range backticked.FindAllStringSubmatch(line, -1) {
			name := m[1]
			var ok bool
			switch {
			case repoPath.MatchString(name):
				_, err := os.Stat(name)
				ok = err == nil
			case strings.HasPrefix(name, "Test") && goName.MatchString(name):
				ok = idx.tests[name]
				tested = true
			case goName.MatchString(name):
				ok = idx.resolves(name)
			default:
				continue // prose in backticks, not a name
			}
			checked++
			if !ok {
				t.Errorf("docs/paper-map.md:%d: `%s` names nothing in the module", i+1, name)
			}
		}
		if claimRow.MatchString(line) && !tested {
			t.Errorf("docs/paper-map.md:%d: the row names no test of its claim", i+1)
		}
	}
	if checked == 0 {
		t.Fatal("docs/paper-map.md names no code")
	}
}
