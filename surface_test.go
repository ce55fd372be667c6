package repro_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// surfaceFile is the committed list of exported identifiers under internal/
// that no other package uses, each with the reason it is allowed to stay.
const surfaceFile = "testdata/surface.txt"

// surfaceReasons is the fixed vocabulary of surfaceFile's second column; the
// file's header says what each means.
var surfaceReasons = []string{"sentinel", "option", "facade", "test-api", "debt"}

// debtOwners is what a rewrite ROADMAP.md already plans (items 4 and 15)
// owns: whole packages, or single identifiers where the rewrite takes
// only those. A debt line for anything else is refused: its identifier is
// deleted, unexported or used instead.
var debtOwners = []string{"metrics.Gauge", "metrics.Registry.Gauge", "queue"}

// debtAllowed reports whether name, a "pkg.Name" entry, may be listed as debt.
func debtAllowed(name string) bool {
	pkg, _, _ := strings.Cut(name, ".")
	return slices.Contains(debtOwners, pkg) || slices.Contains(debtOwners, name)
}

// TestSurface is the exported-surface gate. It type-checks every package of
// the module and of bench/ (a module of its own that compiles against
// internal/) from source, test files excluded, and lists each exported
// identifier under internal/ — package-level names, methods and struct fields
// — that no other package's code refers to. Two rules widen "refers to":
//
//   - A method that implements a used interface method counts as used: a call
//     through the interface reaches it. An interface method is used when any
//     scanned code names it; error.Error and fmt.Stringer.String, which the
//     standard library calls on its own, always are.
//   - A struct field with a tag counts as used: an encoder reads it by
//     reflection.
//   - A type counts as used when another package uses a function, method,
//     field, variable or constant whose type mentions it: that package holds
//     or passes its values without naming it.
//
// The last rule has a converse, checked too: an exported identifier may not
// mention an unexported type of its own package, since that hides the
// fields and methods other packages reach through it from this gate (and
// leaves callers unable to name what they receive).
//
// The list must equal surfaceFile. An identifier missing from the file fails
// the test by name (delete it, unexport it or use it, rather than list it); a
// listed identifier that is no longer reported fails until its line goes. So
// the file only shrinks.
func TestSurface(t *testing.T) {
	reported, hidden, err := scanSurface(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hidden {
		t.Errorf("%s: export the type or unexport the identifier", h)
	}
	listed, err := readSurfaceFile(surfaceFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range reported {
		if _, ok := listed[name]; !ok {
			t.Errorf("%s is exported but no other package uses it: delete it, unexport it or use it", name)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(listed)) {
		if !slices.Contains(reported, name) {
			t.Errorf("%s is no longer dead surface: delete its line from %s", name, surfaceFile)
		}
	}
}

// readSurfaceFile parses "pkg.Name reason" lines; blank lines and lines
// starting with # are skipped.
func readSurfaceFile(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s:%d: want \"pkg.Name reason\", got %q", path, n, line)
		}
		if !slices.Contains(surfaceReasons, fields[1]) {
			return nil, fmt.Errorf("%s:%d: reason %q is not one of %s", path, n, fields[1], strings.Join(surfaceReasons, ", "))
		}
		if fields[1] == "debt" && !debtAllowed(fields[0]) {
			return nil, fmt.Errorf("%s:%d: %s: debt is allowed only for %s", path, n, fields[0], strings.Join(debtOwners, ", "))
		}
		if _, dup := out[fields[0]]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, n, fields[0])
		}
		out[fields[0]] = fields[1]
	}
	return out, sc.Err()
}

// surfaceLoader type-checks the repository's packages from source on demand
// and everything else from the compiler's export data.
type surfaceLoader struct {
	fset    *token.FileSet
	std     types.Importer
	dirs    map[string]string // import path -> directory
	checked map[string]*surfacePkg
}

type surfacePkg struct {
	pkg  *types.Package
	info *types.Info
}

func (l *surfaceLoader) Import(path string) (*types.Package, error) {
	if _, ok := l.dirs[path]; !ok {
		return l.std.Import(path)
	}
	p, err := l.check(path)
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

func (l *surfaceLoader) check(path string) (*surfacePkg, error) {
	if p, ok := l.checked[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	l.checked[path] = nil
	dir := l.dirs[path]
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
	pkg, err := (&types.Config{Importer: l}).Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	p := &surfacePkg{pkg: pkg, info: info}
	l.checked[path] = p
	return p, nil
}

// scanSurface returns the sorted "pkg.Name" list of exported identifiers
// under root's internal/ that no other package uses, and the exported
// identifiers there that mention an unexported type of their package.
func scanSurface(root string) (dead, hidden []string, err error) {
	l := &surfaceLoader{fset: token.NewFileSet(), dirs: map[string]string{}, checked: map[string]*surfacePkg{}}
	l.std = importer.ForCompiler(l.fset, "gc", nil)
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		matches, _ := filepath.Glob(filepath.Join(path, "*.go"))
		for _, m := range matches {
			if !strings.HasSuffix(m, "_test.go") {
				rel, _ := filepath.Rel(root, path)
				l.dirs[strings.TrimSuffix("repro/"+filepath.ToSlash(rel), "/.")] = path
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	paths := slices.Sorted(maps.Keys(l.dirs))

	used := map[types.Object]bool{}
	ifaceUsed := map[*types.Func]bool{}
	for _, path := range paths {
		p, err := l.check(path)
		if err != nil {
			return nil, nil, err
		}
		for _, obj := range p.info.Uses {
			obj = surfaceOrigin(obj)
			if fn, ok := obj.(*types.Func); ok {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					ifaceUsed[fn] = true
				}
			}
			if obj.Pkg() != nil && obj.Pkg() != p.pkg {
				used[obj] = true
			}
		}
		// A promoted field or method is reached through the embedded fields
		// on its path, which no identifier names.
		for _, sel := range p.info.Selections {
			typ := sel.Recv()
			for _, i := range sel.Index()[:len(sel.Index())-1] {
				if ptr, ok := typ.Underlying().(*types.Pointer); ok {
					typ = ptr.Elem()
				}
				st, ok := typ.Underlying().(*types.Struct)
				if !ok {
					break
				}
				if f := st.Field(i); f.Pkg() != p.pkg {
					used[f.Origin()] = true
				}
				typ = st.Field(i).Type()
			}
		}
	}
	for _, obj := range slices.Collect(maps.Keys(used)) {
		surfaceNamedTypes(obj.Type(), func(n *types.Named) { used[n.Origin().Obj()] = true })
	}
	fmtPkg, err := l.std.Import("fmt")
	if err != nil {
		return nil, nil, err
	}
	for _, obj := range []types.Object{fmtPkg.Scope().Lookup("Stringer"), types.Universe.Lookup("error")} {
		ifaceUsed[obj.Type().Underlying().(*types.Interface).Method(0)] = true
	}
	byName := map[string][]*types.Interface{}
	for fn := range ifaceUsed {
		recv := fn.Type().(*types.Signature).Recv().Type()
		if named, ok := recv.(*types.Named); ok && named.TypeParams().Len() > 0 {
			continue
		}
		byName[fn.Name()] = append(byName[fn.Name()], recv.Underlying().(*types.Interface))
	}
	implementsUsed := func(named *types.Named, m *types.Func) bool {
		for _, iface := range byName[m.Name()] {
			if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
				return true
			}
		}
		return false
	}

	for _, path := range paths {
		rel, ok := strings.CutPrefix(path, "repro/internal/")
		if !ok {
			continue
		}
		pkg := l.checked[path].pkg
		// check reports name if it is dead, and if typ (what other packages
		// see of it) mentions an unexported type of pkg.
		check := func(name string, isUsed bool, typ types.Type) {
			if !isUsed {
				dead = append(dead, rel+"."+name)
			}
			surfaceNamedTypes(typ, func(n *types.Named) {
				if o := n.Obj(); o.Pkg() == pkg && !o.Exported() {
					hidden = append(hidden, fmt.Sprintf("%s.%s mentions the unexported type %s", rel, name, o.Name()))
				}
			})
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				check(name, used[obj], obj.Type())
				continue
			}
			named := tn.Type().(*types.Named)
			// A struct's fields and an interface's methods are checked one
			// by one below.
			var def types.Type
			switch named.Underlying().(type) {
			case *types.Struct, *types.Interface:
			default:
				def = named.Underlying()
			}
			check(name, used[obj], def)
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() {
					check(name+"."+m.Name(), used[m] || implementsUsed(named, m), m.Type())
				}
			}
			switch u := named.Underlying().(type) {
			case *types.Struct:
				for i := 0; i < u.NumFields(); i++ {
					if f := u.Field(i); f.Exported() {
						check(name+"."+f.Name(), used[f] || u.Tag(i) != "", f.Type())
					}
				}
			case *types.Interface:
				for i := 0; i < u.NumExplicitMethods(); i++ {
					if m := u.ExplicitMethod(i); m.Exported() {
						check(name+"."+m.Name(), used[m], m.Type())
					}
				}
			}
		}
	}
	sort.Strings(dead)
	sort.Strings(hidden)
	return dead, hidden, nil
}

// surfaceNamedTypes calls fn for each named type that t is built from,
// without looking inside a named type's own definition.
func surfaceNamedTypes(t types.Type, fn func(*types.Named)) {
	switch t := t.(type) {
	case *types.Named:
		fn(t)
		for i := 0; i < t.TypeArgs().Len(); i++ {
			surfaceNamedTypes(t.TypeArgs().At(i), fn)
		}
	case *types.Pointer:
		surfaceNamedTypes(t.Elem(), fn)
	case *types.Slice:
		surfaceNamedTypes(t.Elem(), fn)
	case *types.Array:
		surfaceNamedTypes(t.Elem(), fn)
	case *types.Chan:
		surfaceNamedTypes(t.Elem(), fn)
	case *types.Map:
		surfaceNamedTypes(t.Key(), fn)
		surfaceNamedTypes(t.Elem(), fn)
	case *types.Signature:
		for i := 0; i < t.Params().Len(); i++ {
			surfaceNamedTypes(t.Params().At(i).Type(), fn)
		}
		for i := 0; i < t.Results().Len(); i++ {
			surfaceNamedTypes(t.Results().At(i).Type(), fn)
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if t.Field(i).Exported() {
				surfaceNamedTypes(t.Field(i).Type(), fn)
			}
		}
	case *types.Interface:
		for i := 0; i < t.NumExplicitMethods(); i++ {
			surfaceNamedTypes(t.ExplicitMethod(i).Type(), fn)
		}
	}
}

// surfaceOrigin maps an instantiated generic field or method to its
// declaration.
func surfaceOrigin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
