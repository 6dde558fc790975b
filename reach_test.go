package lighttrader

// The reachability gate (`make reach-check`, part of `make ci`): an exported
// identifier under internal/ that no non-test file of this module or of the
// nested perf/ module references is dead weight the compiler cannot see —
// nothing outside the module can import internal/, so only tests keep it
// alive. The same holds for an exported field of an exported struct that no
// non-test file writes: a knob only tests set keeps alive every branch that
// reads it. Every such name must be in testdata/reach_allow.txt with a
// one-line reason, and that list may only shrink: delete the code (or move a
// test-only helper into the _test.go file that uses it) instead of adding a
// line.
//
// The scan is name-based (go/parser, no type checking). A top-level name is
// referenced by `alias.Name` in a file importing its package, or by a bare
// `Name` elsewhere in its own package; a method by any `.Name` selector, or
// by an interface that declares the name (so satisfying an interface counts).
// A field is reached when some non-test file writes a field of that name: a
// composite-literal key `F:`, an assignment, op-assignment or inc/dec whose
// target is `x.F` or `x.F[i]`, or `&x.F`. It errs toward "referenced": what
// it reports is certainly unreferenced, except for a field set only by an
// unkeyed literal `T{…}`, which the scan does not see (key the literal). The
// price is that names collide — a method or field is reached if any type's
// method or field of the same name is, so one that is dead beside a live
// namesake (two `MeanRate` methods, say) goes unreported.

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// reachAllowMax is the allowlist's ratchet: the list may not be longer than
// this, and when it gets shorter this comes down with it.
const reachAllowMax = 10

const modulePath = "lighttrader"

// unreachedExports returns the exported identifiers declared in non-test
// files under root/internal/ that no non-test file under root references (or,
// for a struct field, writes), as sorted "internal/pkg.Name",
// "internal/pkg.Type.Method" or "internal/pkg.Type.Field" keys.
func unreachedExports(t *testing.T, root string) []string {
	t.Helper()
	fset := token.NewFileSet()
	type kind int
	const (
		topLevel kind = iota
		method
		field
	)
	type decl struct {
		key  string
		dir  string // declaring package directory
		name string
		kind kind
	}
	var decls []decl
	defs := map[*ast.Ident]bool{}             // declaring idents, not uses
	pkgRefs := map[string]map[string]bool{}   // import path → names used as alias.Name
	localRefs := map[string]map[string]bool{} // package dir → bare identifiers used
	selectors := map[string]bool{}            // every .Name selector anywhere
	ifaceMethods := map[string]bool{}         // names declared by interfaces
	written := map[string]bool{}              // field names some file writes
	note := func(m map[string]map[string]bool, k, name string) {
		if m[k] == nil {
			m[k] = map[string]bool{}
		}
		m[k][name] = true
	}
	// write records the field an assignment target or & operand names.
	write := func(x ast.Expr) {
		for {
			ix, ok := x.(*ast.IndexExpr)
			if !ok {
				break
			}
			x = ix.X
		}
		if sel, ok := x.(*ast.SelectorExpr); ok {
			written[sel.Sel.Name] = true
		}
	}

	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
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
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(rel)
		if strings.HasPrefix(dir, "internal/") {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					defs[d.Name] = true
					if !d.Name.IsExported() {
						continue
					}
					if d.Recv == nil {
						decls = append(decls, decl{dir + "." + d.Name.Name, dir, d.Name.Name, topLevel})
						continue
					}
					recv := d.Recv.List[0].Type
					if s, ok := recv.(*ast.StarExpr); ok {
						recv = s.X
					}
					switch ix := recv.(type) {
					case *ast.IndexExpr:
						recv = ix.X
					case *ast.IndexListExpr:
						recv = ix.X
					}
					if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
						decls = append(decls, decl{dir + "." + id.Name + "." + d.Name.Name, dir, d.Name.Name, method})
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						var names []*ast.Ident
						switch s := spec.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{s.Name}
							if st, ok := s.Type.(*ast.StructType); ok && s.Name.IsExported() {
								for _, fld := range st.Fields.List {
									for _, n := range fld.Names {
										if n.IsExported() {
											decls = append(decls, decl{dir + "." + s.Name.Name + "." + n.Name, dir, n.Name, field})
										}
									}
								}
							}
						case *ast.ValueSpec:
							names = s.Names
						}
						for _, n := range names {
							defs[n] = true
							if n.IsExported() {
								decls = append(decls, decl{dir + "." + n.Name, dir, n.Name, topLevel})
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
			case *ast.KeyValueExpr:
				if k, ok := n.Key.(*ast.Ident); ok {
					written[k.Name] = true
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					write(lhs)
				}
			case *ast.IncDecStmt:
				write(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					write(n.X)
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
		var reached bool
		switch d.kind {
		case topLevel:
			reached = pkgRefs[d.dir][d.name] || localRefs[d.dir][d.name]
		case method:
			reached = selectors[d.name] || ifaceMethods[d.name]
		case field:
			reached = written[d.name]
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
	for _, key := range unreachedExports(t, ".") {
		if !allowed[key] {
			t.Errorf("%s is exported but no non-test file references (or, for a field, writes) it: delete it, unexport it, or move it to the _test.go file that uses it", key)
		}
		delete(allowed, key)
	}
	for key := range allowed {
		t.Errorf("%s: %s is referenced now (or gone): remove the line and lower reachAllowMax", allowFile, key)
	}
}

// TestUnreachedExportsRules runs the scan over small synthetic module trees,
// one rule per case, including the two the header comment states as limits
// or fixes: a dead method beside a live namesake is missed, and a method on
// a receiver with two type parameters is checked like any other.
func TestUnreachedExportsRules(t *testing.T) {
	cases := []struct {
		name  string
		files map[string]string
		want  []string
	}{
		{
			name: "a field only read is reported",
			files: map[string]string{
				"internal/p/p.go": "package p\n\ntype Config struct{ Knob, Used int }\n\nfunc New() Config { return Config{Used: 1} }\n",
				"main.go":         "package main\n\nimport \"lighttrader/internal/p\"\n\nfunc main() { _ = p.New().Knob }\n",
			},
			want: []string{"internal/p.Config.Knob"},
		},
		{
			name: "indexed, addressed, keyed, op-assigned and incremented fields are written",
			files: map[string]string{
				"internal/p/p.go": "package p\n\ntype T struct {\n\tA    []int\n\tB, C int\n\tD, E int\n}\n\n" +
					"func Use() {\n\tvar t T\n\tt.A[0] = 1\n\t_ = &t.B\n\t_ = T{C: 1}\n\tt.D += 2\n\tt.E++\n}\n",
				"main.go": "package main\n\nimport \"lighttrader/internal/p\"\n\nfunc main() { p.Use() }\n",
			},
		},
		{
			name: "a dead method beside a live namesake passes as reached",
			files: map[string]string{
				"internal/p/p.go": "package p\n\ntype A struct{}\n\nfunc (A) Rate() int { return 1 }\n\n" +
					"type B struct{}\n\nfunc (B) Rate() int { return 2 }\n",
				"main.go": "package main\n\nimport \"lighttrader/internal/p\"\n\nvar _, _ = p.A{}.Rate(), p.B{}\n",
			},
		},
		{
			name: "a method on a two-parameter generic receiver is checked",
			files: map[string]string{
				"internal/p/p.go": "package p\n\ntype Pair[K comparable, V any] struct {\n\tk K\n\tv V\n}\n\n" +
					"func (p *Pair[K, V]) Key() K { return p.k }\n\n" +
					"func NewPair[K comparable, V any](k K, v V) *Pair[K, V] { return &Pair[K, V]{k, v} }\n",
				"main.go": "package main\n\nimport \"lighttrader/internal/p\"\n\nvar _ = p.NewPair(1, \"a\")\n",
			},
			want: []string{"internal/p.Pair.Key"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			root := t.TempDir()
			for name, src := range c.files {
				path := filepath.Join(root, filepath.FromSlash(name))
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if got := unreachedExports(t, root); !slices.Equal(got, c.want) {
				t.Errorf("unreached %q, want %q", got, c.want)
			}
		})
	}
}
