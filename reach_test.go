//go:build !race

package lighttrader

// The reachability gate (`make reach-check`, part of `make ci`): code under
// internal/ that no non-test file of this module or of the nested perf/
// module reaches is dead weight the compiler cannot see — nothing outside
// the module can import internal/ (but see the facade's aliases below), and
// the compiler rejects unused locals and imports but not unused
// package-level functions, methods, types, constants or fields. Every such declaration must be in
// testdata/reach_allow.txt with a one-line reason, and that list may only
// shrink: delete the code (or move a test-only helper into the _test.go file
// that uses it) instead of adding a line.
//
// The scan type-checks every non-test package of the tree from source
// (go/types; the standard library through the "source" importer, this
// module's packages as already checked) and tracks objects, not names, so a
// dead method or field beside a live namesake is reported like any other.
// The rules, for a declaration in a non-test file under internal/:
//   - a function, type, variable or constant is reached by a use
//     (types.Info.Uses) in non-test code — not its own methods' receiver
//     types, not a call to itself from its own body;
//   - a method is reached by a selection — a call, a method value or a
//     method expression (the selector's types.Info.Uses entry) — or when
//     its type, or a pointer to it, satisfies an interface that declares it:
//     one declared in any package the program imports, directly or not, its
//     own or the standard library's (so fmt.Stringer reaches String), one
//     written as an interface literal, or `error`; a generic method counts
//     through its origin, so a call on any instantiation reaches it;
//   - an exported field of an exported struct is reached by a write: a
//     keyed or unkeyed composite literal, an assignment, op-assignment or
//     inc/dec whose target is `x.F` or `x.F[i]`, or `&x.F` — a knob only
//     tests set keeps alive every branch that reads it (an unexported
//     struct's exported fields are not checked);
//   - an unexported field is reached by a read: any use but a literal key,
//     an assignment target or an inc/dec (`&x.f` reads too) — a field that
//     is written and never read is a counter nobody looks at.
//
// One exception: a type the facade re-exports by alias (`type X = pkg.T`)
// reaches callers outside the module, so its exported methods and fields
// are public API and count as reached; testdata/api.txt lists each of them,
// so removing one is a recorded API change.
//
// A package under internal/ that only _test.go files import is test support
// and is not scanned. Finally, a facade option — an exported `With…`
// function of the root package — must be referenced by some file of the
// tree, tests included: an option nothing sets is a configuration axis
// nobody exercises.
//
// The scan is one goroutine reading source, so the race-detector build
// leaves it out: there it would take five times as long and check nothing
// more. `make reach-check` and the plain test pass run it.

import (
	"bufio"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// reachAllowMax is the allowlist's ratchet: the list may not be longer than
// this, and when it gets shorter this comes down with it.
const reachAllowMax = 3

const modulePath = "lighttrader"

// reachFset and stdImporter are shared by every scan in the process, so the
// standard library is type-checked from source once.
var (
	reachFset   = token.NewFileSet()
	stdImporter = sync.OnceValue(func() types.Importer {
		return importer.ForCompiler(reachFset, "source", nil)
	})
)

// reachPkg is one directory of the tree: its parsed files and, once
// checked, its types.
type reachPkg struct {
	dir, path   string // slash-separated directory relative to the root; import path
	files       []*ast.File
	testFiles   []*ast.File
	imports     []string // of the non-test files
	testImports []string
	types       *types.Package
	info        *types.Info
}

// unreached returns the declarations in non-test files under root/internal/
// that no non-test file under root reaches (see the header for the rules),
// and the root package's With… options that no file references, as sorted
// "internal/pkg.Name", "internal/pkg.Type.Method", "internal/pkg.Type.Field"
// and "lighttrader.WithOption" keys.
func unreached(t *testing.T, root string) []string {
	t.Helper()
	pkgs, err := loadTree(root)
	if err != nil {
		t.Fatal(err)
	}

	// What non-test code does: uses, field reads and writes, and the
	// interfaces it can satisfy.
	used := map[types.Object]bool{}
	read := map[types.Object]bool{}
	written := map[types.Object]bool{}
	var ifaces []*types.Interface
	ifaceSeen := map[*types.Package]bool{}
	var collectIfaces func(pkg *types.Package)
	collectIfaces = func(pkg *types.Package) {
		if ifaceSeen[pkg] {
			return
		}
		ifaceSeen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, dep := range pkg.Imports() {
			collectIfaces(dep)
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	nonTestImported := map[string]bool{}
	testImported := map[string]bool{}
	for _, p := range pkgs {
		for _, path := range p.imports {
			nonTestImported[path] = true
		}
		for _, path := range p.testImports {
			testImported[path] = true
		}
		if p.types == nil {
			continue
		}
		collectIfaces(p.types)
		for _, tv := range p.info.Types {
			if it, ok := tv.Type.(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
		for _, f := range p.files {
			reachWalk(p.info, f, used, read, written)
		}
	}

	// The facade's aliases of internal types hand those types to callers
	// outside the module: their exported methods and fields are public API,
	// which testdata/api.txt records, and count as reached.
	if facade := pkgs[modulePath]; facade != nil && facade.types != nil {
		scope := facade.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.IsAlias() || !tn.Exported() {
				continue
			}
			named, ok := types.Unalias(tn.Type()).(*types.Named)
			if !ok || named.Obj().Pkg() == nil || !strings.HasPrefix(named.Obj().Pkg().Path(), modulePath+"/internal/") {
				continue
			}
			for i := range named.NumMethods() {
				if m := named.Method(i); m.Exported() {
					used[m] = true
				}
			}
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := range st.NumFields() {
					if f := st.Field(i); f.Exported() {
						written[f] = true
					}
				}
			}
		}
	}

	// Declarations under internal/, less test-support packages.
	type decl struct {
		key string
		obj types.Object
	}
	var decls []decl
	methodsOf := map[*types.TypeName][]decl{}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.dir, "internal/") || p.types == nil ||
			(!nonTestImported[p.path] && testImported[p.path]) {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := p.info.Defs[d.Name].(*types.Func)
					if d.Recv == nil {
						if d.Name.Name != "init" {
							decls = append(decls, decl{p.dir + "." + d.Name.Name, obj})
						}
						continue
					}
					tn := recvTypeName(obj)
					md := decl{p.dir + "." + tn.Name() + "." + d.Name.Name, obj}
					decls = append(decls, md)
					methodsOf[tn] = append(methodsOf[tn], md)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							decls = append(decls, decl{p.dir + "." + s.Name.Name, p.info.Defs[s.Name]})
							st, ok := s.Type.(*ast.StructType)
							if !ok {
								continue
							}
							for _, fld := range st.Fields.List {
								for _, n := range fld.Names {
									if n.IsExported() && !s.Name.IsExported() {
										continue // unexported struct: its exported fields carry no API
									}
									decls = append(decls, decl{p.dir + "." + s.Name.Name + "." + n.Name, p.info.Defs[n]})
								}
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.Name != "_" {
									decls = append(decls, decl{p.dir + "." + n.Name, p.info.Defs[n]})
								}
							}
						}
					}
				}
			}
		}
	}

	// A method that only dynamic dispatch can call: its type satisfies an
	// interface that declares it.
	for tn, ms := range methodsOf {
		named, ok := tn.Type().(*types.Named)
		if !ok || named.TypeParams().Len() > 0 {
			continue
		}
		for _, m := range ms {
			if used[m.obj] {
				continue
			}
			for _, it := range ifaces {
				if declares(it, m.obj.Name()) &&
					(types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
					used[m.obj] = true
					break
				}
			}
		}
	}

	var out []string
	for _, d := range decls {
		var reached bool
		switch v, isVar := d.obj.(*types.Var); {
		case isVar && v.IsField() && v.Exported():
			reached = written[v]
		case isVar && v.IsField():
			reached = read[v]
		default:
			reached = used[d.obj]
		}
		if !reached {
			out = append(out, d.key)
		}
	}

	out = append(out, unreferencedOptions(pkgs, used)...)
	sort.Strings(out)
	return out
}

// loadTree parses every package directory under root (build constraints
// applied, testdata and dot-directories skipped) and type-checks its
// non-test files, keyed by import path.
func loadTree(root string) (map[string]*reachPkg, error) {
	pkgs := map[string]*reachPkg{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(path, 0)
		if err != nil {
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				return nil
			}
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		p := &reachPkg{dir: filepath.ToSlash(rel), path: modulePath, imports: bp.Imports,
			testImports: append(bp.TestImports, bp.XTestImports...)}
		if p.dir != "." {
			p.path += "/" + p.dir
		}
		parse := func(names []string) ([]*ast.File, error) {
			var fs []*ast.File
			for _, n := range names {
				f, err := parser.ParseFile(reachFset, filepath.Join(path, n), nil, parser.SkipObjectResolution)
				if err != nil {
					return nil, err
				}
				fs = append(fs, f)
			}
			return fs, nil
		}
		if p.files, err = parse(bp.GoFiles); err != nil {
			return err
		}
		if p.testFiles, err = parse(append(bp.TestGoFiles, bp.XTestGoFiles...)); err != nil {
			return err
		}
		pkgs[p.path] = p
		return nil
	})
	if err != nil {
		return nil, err
	}

	// This module's imports are checked on demand and handed back as the
	// same *types.Package, so an object is one pointer wherever it is used.
	var check func(p *reachPkg) (*types.Package, error)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := pkgs[path]; p != nil {
			return check(p)
		}
		return stdImporter().Import(path)
	})
	check = func(p *reachPkg) (*types.Package, error) {
		if p.types != nil {
			return p.types, nil
		}
		p.info = &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: imp}
		var err error
		p.types, err = conf.Check(p.path, reachFset, p.files, p.info)
		return p.types, err
	}
	for _, p := range pkgs {
		if len(p.files) > 0 {
			if _, err := check(p); err != nil {
				return nil, fmt.Errorf("type-checking %s: %w", p.path, err)
			}
		}
	}
	return pkgs, nil
}

// unreferencedOptions returns the root package's exported With… functions
// that neither non-test code uses nor any test file names.
func unreferencedOptions(pkgs map[string]*reachPkg, used map[types.Object]bool) []string {
	facade := pkgs[modulePath]
	if facade == nil || facade.types == nil {
		return nil
	}
	referenced := map[string]bool{}
	for _, p := range pkgs {
		for _, f := range p.testFiles {
			local := p.path == modulePath && f.Name.Name == facade.types.Name()
			alias := ""
			for _, is := range f.Imports {
				if path, _ := strconv.Unquote(is.Path.Value); path == modulePath {
					alias = facade.types.Name()
					if is.Name != nil {
						alias = is.Name.Name
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && alias != "" && x.Name == alias {
						referenced[n.Sel.Name] = true
					}
				case *ast.Ident:
					if local {
						referenced[n.Name] = true
					}
				}
				return true
			})
		}
	}
	var out []string
	scope := facade.types.Scope()
	for _, name := range scope.Names() {
		fn, ok := scope.Lookup(name).(*types.Func)
		if ok && fn.Exported() && strings.HasPrefix(name, "With") && !used[fn] && !referenced[name] {
			out = append(out, modulePath+"."+name)
		}
	}
	return out
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// origin maps an instantiated generic function, method or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// recvTypeName is the named type a method is declared on.
func recvTypeName(m *types.Func) *types.TypeName {
	t := m.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Obj()
}

// declares reports whether interface it has a method called name.
func declares(it *types.Interface, name string) bool {
	for i := range it.NumMethods() {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// reachWalk records what one non-test file uses: every object it names
// (less its methods' receiver types and a function's calls to itself), and
// for fields whether each occurrence reads or writes.
func reachWalk(info *types.Info, f *ast.File, used, read, written map[types.Object]bool) {
	pureWrites := map[*ast.Ident]bool{} // a write and nothing else
	writes := map[*ast.Ident]bool{}
	target := func(x ast.Expr) *ast.Ident {
		for {
			switch e := x.(type) {
			case *ast.IndexExpr:
				x = e.X
			case *ast.ParenExpr:
				x = e.X
			case *ast.SelectorExpr:
				return e.Sel
			default:
				return nil
			}
		}
	}
	skip := map[*ast.Ident]bool{}
	var self types.Object
	visit := func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id := target(lhs); id != nil {
					pureWrites[id], writes[id] = true, true
				}
			}
		case *ast.IncDecStmt:
			if id := target(n.X); id != nil {
				pureWrites[id], writes[id] = true, true
			}
		case *ast.UnaryExpr:
			if id := target(n.X); n.Op == token.AND && id != nil {
				writes[id] = true
			}
		case *ast.CompositeLit:
			var st *types.Struct
			if tv, ok := info.Types[n]; ok && tv.Type != nil {
				st, _ = tv.Type.Underlying().(*types.Struct)
			}
			for i, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						pureWrites[id], writes[id] = true, true
					}
				} else if st != nil {
					written[origin(st.Field(i))] = true
				}
			}
		case *ast.Ident:
			obj := info.Uses[n]
			if obj == nil || skip[n] {
				return true
			}
			if obj = origin(obj); obj == self {
				return true
			}
			if v, ok := obj.(*types.Var); ok && v.IsField() {
				if writes[n] {
					written[v] = true
				}
				if !pureWrites[n] {
					read[v] = true
				}
				return true
			}
			used[obj] = true
		}
		return true
	}
	for _, d := range f.Decls {
		self = nil
		if fd, ok := d.(*ast.FuncDecl); ok {
			self = info.Defs[fd.Name]
			if fd.Recv != nil {
				ast.Inspect(fd.Recv.List[0].Type, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						skip[id] = true
					}
					return true
				})
			}
		}
		ast.Inspect(d, visit)
	}
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
	for _, key := range unreached(t, ".") {
		if !allowed[key] {
			t.Errorf("%s is unreached from non-test code (see reach_test.go for the rules): delete it, or move it to the _test.go file that uses it", key)
		}
		delete(allowed, key)
	}
	for key := range allowed {
		t.Errorf("%s: %s is reached now (or gone): remove the line and lower reachAllowMax", allowFile, key)
	}
}

// TestUnreachedExportsRules runs the scan over small synthetic module trees,
// one rule per case.
func TestUnreachedExportsRules(t *testing.T) {
	const mainUses = "package main\n\nimport \"lighttrader/internal/p\"\n\n"
	cases := []struct {
		name  string
		files map[string]string
		want  []string
	}{
		{
			name: "a field only read is reported",
			files: map[string]string{
				"internal/p/p.go": "package p\n\ntype Config struct{ Knob, Used int }\n\nfunc New() Config { return Config{Used: 1} }\n",
				"main.go":         mainUses + "func main() { _ = p.New().Knob }\n",
			},
			want: []string{"internal/p.Config.Knob"},
		},
		{
			name: "indexed, addressed, keyed, op-assigned and incremented fields are written",
			files: map[string]string{
				"internal/p/p.go": "package p\n\ntype T struct {\n\tA    []int\n\tB, C int\n\tD, E int\n}\n\n" +
					"func Use() {\n\tvar t T\n\tt.A[0] = 1\n\t_ = &t.B\n\t_ = T{C: 1}\n\tt.D += 2\n\tt.E++\n}\n",
				"main.go": mainUses + "func main() { p.Use() }\n",
			},
		},
		{
			name: "a dead method beside a live namesake is reported",
			files: map[string]string{
				"internal/p/p.go": "package p\n\ntype A struct{}\n\nfunc (A) Rate() int { return 1 }\n\n" +
					"type B struct{}\n\nfunc (B) Rate() int { return 2 }\n",
				"main.go": mainUses + "var _, _ = p.A{}.Rate(), p.B{}\n",
			},
			want: []string{"internal/p.B.Rate"},
		},
		{
			name: "a method on a two-parameter generic receiver is checked",
			files: map[string]string{
				"internal/p/p.go": "package p\n\ntype Pair[K comparable, V any] struct {\n\tk K\n\tv V\n}\n\n" +
					"func (p *Pair[K, V]) Key() K { return p.k }\n\n" +
					"func (p *Pair[K, V]) Value() V { return p.v }\n\n" +
					"func NewPair[K comparable, V any](k K, v V) *Pair[K, V] { return &Pair[K, V]{k, v} }\n",
				"main.go": mainUses + "var _ = p.NewPair(1, \"a\").Value()\n",
			},
			want: []string{"internal/p.Pair.Key"},
		},
		{
			name: "a generic method is reached through an instantiation",
			files: map[string]string{
				"internal/p/p.go": "package p\n\ntype Ring[T any] struct{ xs []T }\n\n" +
					"func (r *Ring[T]) Push(x T) { r.xs = append(r.xs, x) }\n\n" +
					"func (r *Ring[T]) Len() int { return len(r.xs) }\n",
				"main.go": mainUses + "func main() {\n\tvar r p.Ring[int]\n\tr.Push(1)\n\t_ = r.Len()\n}\n",
			},
		},
		{
			name: "a method is reached by interface conversion alone",
			files: map[string]string{
				"internal/p/p.go": "package p\n\ntype Rater interface{ Rate() int }\n\n" +
					"type A struct{}\n\nfunc (A) Rate() int { return 1 }\n\n" +
					"func Of(r Rater) int { return r.Rate() }\n",
				"main.go": mainUses + "var _ = p.Of(p.A{})\n",
			},
		},
		{
			name: "an unexported field written and never read is reported",
			files: map[string]string{
				"internal/p/p.go": "package p\n\ntype counter struct{ hits, n int }\n\n" +
					"func Count() int {\n\tvar c counter\n\tc.hits++\n\tc.n = 2\n\treturn c.n\n}\n",
				"main.go": mainUses + "var _ = p.Count()\n",
			},
			want: []string{"internal/p.counter.hits"},
		},
		{
			name: "a facade option nothing references is reported",
			files: map[string]string{
				"options.go": "package lighttrader\n\ntype Option func(*int)\n\n" +
					"func WithUsed() Option { return nil }\n\nfunc WithTested() Option { return nil }\n\n" +
					"func WithNothing() Option { return nil }\n",
				"options_test.go": "package lighttrader\n\nvar _ = WithTested()\n",
				"cmd/x/main.go":   "package main\n\nimport \"lighttrader\"\n\nfunc main() { _ = lighttrader.WithUsed() }\n",
			},
			want: []string{"lighttrader.WithNothing"},
		},
		{
			name: "the members of a type the facade re-exports are public API",
			files: map[string]string{
				"internal/p/p.go": "package p\n\ntype T struct{ Knob int }\n\nfunc (T) Get() int { return 1 }\n\n" +
					"type U struct{ Knob int }\n\nfunc (U) Get() int { return 2 }\n",
				"lighttrader.go": "package lighttrader\n\nimport \"lighttrader/internal/p\"\n\ntype T = p.T\n\nvar _ p.U\n",
			},
			want: []string{"internal/p.U.Get", "internal/p.U.Knob"},
		},
		{
			name: "a package only tests import is test support",
			files: map[string]string{
				"internal/testkit/k.go": "package testkit\n\nfunc Helper() {}\n",
				"internal/p/p.go":       "package p\n\nfunc Live() {}\n",
				"internal/p/p_test.go":  "package p\n\nimport \"lighttrader/internal/testkit\"\n\nvar _ = testkit.Helper\n",
				"main.go":               mainUses + "func main() { p.Live() }\n",
			},
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
			if got := unreached(t, root); !slices.Equal(got, c.want) {
				t.Errorf("unreached %q, want %q", got, c.want)
			}
		})
	}
}
