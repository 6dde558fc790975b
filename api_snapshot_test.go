package lighttrader

// The API-compatibility gate: the exported surface of this package is
// rendered to a canonical text form and compared against the checked-in
// golden snapshot (testdata/api.txt). An unintended signature change,
// removal or rename fails `make api-check` (part of `make ci`); a
// deliberate API change is recorded with `make api-update` and reviewed as
// part of the diff.
//
// The surface includes what the type aliases hand out: a `type X = pkg.T`
// of an internal type gives callers T's exported methods and fields, so
// each is one line, `func (*X) M(…) …`, `func (X) M(…) …` (an interface's
// methods too) or `field X.F …`, its types spelled as in pkg's source.

import (
	"bytes"
	"flag"
	"go/ast"
	"go/build"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var updateAPI = flag.Bool("update-api", false, "rewrite testdata/api.txt from the current exported surface")

var wsRun = regexp.MustCompile(`\s+`)

// renderAPI parses the non-test files of the root package and returns one
// sorted line per exported declaration.
func renderAPI(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	render := func(node any) string {
		var buf bytes.Buffer
		if err := printer.Fprint(&buf, fset, node); err != nil {
			t.Fatal(err)
		}
		return wsRun.ReplaceAllString(buf.String(), " ")
	}
	emit := func(prefix string, node any) {
		lines = append(lines, strings.TrimSpace(prefix+render(node)))
	}
	type aliased struct{ pkg, name string } // an internal type the facade re-exports
	aliases := map[aliased]string{}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil || !d.Name.IsExported() {
					continue // the facade has no exported methods of its own
				}
				d.Body, d.Doc = nil, nil
				emit("", d)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if !s.Name.IsExported() {
							continue
						}
						s.Doc, s.Comment = nil, nil
						emit("type ", s)
						if sel, ok := s.Type.(*ast.SelectorExpr); ok && s.Assign.IsValid() {
							if x, ok := sel.X.(*ast.Ident); ok {
								if path := importPath(f, x.Name); strings.HasPrefix(path, "lighttrader/internal/") {
									aliases[aliased{strings.TrimPrefix(path, "lighttrader/"), sel.Sel.Name}] = s.Name.Name
								}
							}
						}
					case *ast.ValueSpec:
						s.Doc, s.Comment = nil, nil
						for i, n := range s.Names {
							if !n.IsExported() {
								continue
							}
							line := d.Tok.String() + " " + n.Name
							if s.Type != nil {
								var buf bytes.Buffer
								if err := printer.Fprint(&buf, fset, s.Type); err != nil {
									t.Fatal(err)
								}
								line += " " + wsRun.ReplaceAllString(buf.String(), " ")
							}
							if i < len(s.Values) {
								var buf bytes.Buffer
								if err := printer.Fprint(&buf, fset, s.Values[i]); err != nil {
									t.Fatal(err)
								}
								line += " = " + wsRun.ReplaceAllString(buf.String(), " ")
							}
							lines = append(lines, line)
						}
					}
				}
			}
		}
	}

	// The aliased types' exported methods and fields.
	dirs := map[string]bool{}
	for a := range aliases {
		dirs[a.pkg] = true
	}
	for dir := range dirs {
		bp, err := build.Default.ImportDir(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil || !d.Name.IsExported() {
						continue
					}
					star, base := recvBase(d.Recv.List[0].Type)
					if alias, ok := aliases[aliased{dir, base}]; ok {
						lines = append(lines, "func ("+star+alias+") "+d.Name.Name+strings.TrimPrefix(render(d.Type), "func"))
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						alias, ok := aliases[aliased{dir, ts.Name.Name}]
						if !ok {
							continue
						}
						var list *ast.FieldList
						st, isStruct := ts.Type.(*ast.StructType)
						if it, ok := ts.Type.(*ast.InterfaceType); ok {
							list = it.Methods
						} else if isStruct {
							list = st.Fields
						} else {
							continue
						}
						for _, fld := range list.List {
							names := fld.Names
							if len(names) == 0 { // embedded: named after its type
								_, base := recvBase(fld.Type)
								names = []*ast.Ident{ast.NewIdent(base)}
							}
							for _, n := range names {
								switch {
								case !n.IsExported():
								case isStruct:
									lines = append(lines, "field "+alias+"."+n.Name+" "+render(fld.Type))
								default:
									lines = append(lines, "func ("+alias+") "+n.Name+strings.TrimPrefix(render(fld.Type), "func"))
								}
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(lines)
	return lines
}

// importPath returns the path f imports under the name local (an import
// that is not renamed goes by its last path element), or "" when none.
func importPath(f *ast.File, local string) string {
	for _, is := range f.Imports {
		path, _ := strconv.Unquote(is.Path.Value)
		name := path[strings.LastIndex(path, "/")+1:]
		if is.Name != nil {
			name = is.Name.Name
		}
		if name == local {
			return path
		}
	}
	return ""
}

// recvBase splits a receiver or embedded type into its pointer star and
// the name of its base type (type arguments and package qualifier dropped).
func recvBase(x ast.Expr) (star, base string) {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			star, x = "*", e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.SelectorExpr:
			return star, e.Sel.Name
		case *ast.Ident:
			return star, e.Name
		default:
			return star, ""
		}
	}
}

func TestAPISnapshot(t *testing.T) {
	got := strings.Join(renderAPI(t), "\n") + "\n"
	const golden = "testdata/api.txt"
	if *updateAPI {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d declarations)", golden, strings.Count(got, "\n"))
		return
	}
	wantBytes, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing API golden (%v) — run `make api-update` and review the diff", err)
	}
	want := string(wantBytes)
	if got == want {
		return
	}
	gotSet := strings.Split(strings.TrimSpace(got), "\n")
	wantSet := strings.Split(strings.TrimSpace(want), "\n")
	in := func(set []string, line string) bool {
		i := sort.SearchStrings(set, line)
		return i < len(set) && set[i] == line
	}
	for _, l := range wantSet {
		if !in(gotSet, l) {
			t.Errorf("removed or changed: %s", l)
		}
	}
	for _, l := range gotSet {
		if !in(wantSet, l) {
			t.Errorf("added or changed: %s", l)
		}
	}
	t.Fatal("exported API surface diverged from testdata/api.txt — if intended, run `make api-update` and commit the new snapshot")
}
