package lighttrader

// The reachability gate (`make reach-check`, part of `make ci`): an exported
// identifier under internal/ that no non-test file of this module or of the
// nested perf/ module references is dead weight the compiler cannot see —
// nothing outside the module can import internal/, so only tests keep it
// alive. Every such name must be in testdata/reach_allow.txt with a one-line
// reason, and that list may only shrink: delete the code (or move a test-only
// helper into the _test.go file that uses it) instead of adding a line.
//
// The scan is name-based (go/parser, no type checking). A top-level name is
// referenced by `alias.Name` in a file importing its package, or by a bare
// `Name` elsewhere in its own package; a method by any `.Name` selector, or
// by an interface that declares the name (so satisfying an interface counts).
// It errs toward "referenced": what it reports is certainly unreferenced.

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// reachAllowMax is the allowlist's ratchet: the list may not be longer than
// this, and when it gets shorter this comes down with it.
const reachAllowMax = 24

const modulePath = "lighttrader"

// unreachedExports returns the exported identifiers declared in non-test
// files under internal/ that no non-test file references, as sorted
// "internal/pkg.Name" or "internal/pkg.Type.Method" keys.
func unreachedExports(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	type decl struct {
		key    string
		dir    string // declaring package directory
		name   string
		method bool
	}
	var decls []decl
	defs := map[*ast.Ident]bool{}             // declaring idents, not uses
	pkgRefs := map[string]map[string]bool{}   // import path → names used as alias.Name
	localRefs := map[string]map[string]bool{} // package dir → bare identifiers used
	selectors := map[string]bool{}            // every .Name selector anywhere
	ifaceMethods := map[string]bool{}         // names declared by interfaces
	note := func(m map[string]map[string]bool, k, name string) {
		if m[k] == nil {
			m[k] = map[string]bool{}
		}
		m[k][name] = true
	}

	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if strings.HasPrefix(dir, "internal/") {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					defs[d.Name] = true
					if !d.Name.IsExported() {
						continue
					}
					if d.Recv == nil {
						decls = append(decls, decl{dir + "." + d.Name.Name, dir, d.Name.Name, false})
						continue
					}
					recv := d.Recv.List[0].Type
					if s, ok := recv.(*ast.StarExpr); ok {
						recv = s.X
					}
					if ix, ok := recv.(*ast.IndexExpr); ok {
						recv = ix.X
					}
					if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
						decls = append(decls, decl{dir + "." + id.Name + "." + d.Name.Name, dir, d.Name.Name, true})
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						var names []*ast.Ident
						switch s := spec.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{s.Name}
						case *ast.ValueSpec:
							names = s.Names
						}
						for _, n := range names {
							defs[n] = true
							if n.IsExported() {
								decls = append(decls, decl{dir + "." + n.Name, dir, n.Name, false})
							}
						}
					}
				}
			}
		}
		aliases := map[string]string{} // local name → import path of an internal package
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if !strings.HasPrefix(p, modulePath+"/internal/") {
				continue
			}
			alias := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				alias = imp.Name.Name
			}
			aliases[alias] = strings.TrimPrefix(p, modulePath+"/")
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				selectors[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := aliases[x.Name]; ok {
						note(pkgRefs, p, n.Sel.Name)
					}
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						ifaceMethods[name.Name] = true
					}
				}
			case *ast.Ident:
				if !defs[n] {
					note(localRefs, dir, n.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var out []string
	for _, d := range decls {
		reached := pkgRefs[d.dir][d.name] || localRefs[d.dir][d.name]
		if d.method {
			reached = selectors[d.name] || ifaceMethods[d.name]
		}
		if !reached {
			out = append(out, d.key)
		}
	}
	sort.Strings(out)
	return out
}

func TestReachCheck(t *testing.T) {
	const allowFile = "testdata/reach_allow.txt"
	f, err := os.Open(allowFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allowed := map[string]bool{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s: %s has no reason", allowFile, key)
		}
		if allowed[key] {
			t.Errorf("%s: %s listed twice", allowFile, key)
		}
		allowed[key] = true
	}
	if len(allowed) > reachAllowMax {
		t.Errorf("%s has %d entries, the ratchet allows %d: the list only shrinks — delete the code or move it to the test that uses it",
			allowFile, len(allowed), reachAllowMax)
	} else if len(allowed) < reachAllowMax {
		t.Errorf("%s is down to %d entries: lower reachAllowMax (now %d) to keep it there", allowFile, len(allowed), reachAllowMax)
	}
	for _, key := range unreachedExports(t) {
		if !allowed[key] {
			t.Errorf("%s is exported but no non-test file references it: delete it, unexport it, or move it to the _test.go file that uses it", key)
		}
		delete(allowed, key)
	}
	for key := range allowed {
		t.Errorf("%s: %s is referenced now (or gone): remove the line and lower reachAllowMax", allowFile, key)
	}
}
