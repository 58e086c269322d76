package nfr

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// deadExportsFile is the ratchet: the exported identifiers that only
// tests use, each kept for a stated reason.
const deadExportsFile = "testdata/dead_exports.txt"

// deadExportReasons are the reasons an entry of deadExportsFile may give.
var deadExportReasons = map[string]bool{
	// introspection or a split knob that another package's tests need
	// and no public call provides
	"hook": true,
	// an implementation of a paper definition, or an inverse, that a
	// test compares the engine against
	"reference": true,
}

// deadExemptPkgs are the packages whose exported identifiers are API by
// design: the facade, the client, the commands and examples, the
// test-only crash file system, and the paper-theory packages that
// nfr-repro and the examples import.
var deadExemptPkgs = []string{
	"repro",
	"repro/client",
	"repro/cmd/",
	"repro/examples/",
	"repro/internal/storage/crashfs",
	"repro/internal/dep",
	"repro/internal/algebra",
	"repro/internal/baseline",
	"repro/internal/workload",
	"repro/internal/experiments",
}

// apiRoots are the packages whose exported API makes the methods of
// every type it reaches public.
var apiRoots = []string{"repro", "repro/client"}

func deadExempt(path string) bool {
	for _, p := range deadExemptPkgs {
		if path == p || strings.HasSuffix(p, "/") && strings.HasPrefix(path, p) {
			return true
		}
	}
	return false
}

// listedPkg is the subset of `go list -json` this test reads.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// goList runs `go list -e -json -export -deps ./...` in dir.
func goList(t *testing.T, goBin, dir string) []listedPkg {
	t.Helper()
	cmd := exec.Command(goBin, "list", "-e", "-json", "-export", "-deps", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("go list in %s: %v", dir, err)
		}
		if p.Error != nil {
			t.Fatalf("go list in %s: %s: %s", dir, p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// objKey names a package-level object or a method the way
// deadExportsFile does: the import path below the module, then the
// name, with a method's receiver type between them.
func objKey(obj types.Object) string {
	path := strings.TrimPrefix(obj.Pkg().Path(), "repro/")
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if n := namedOf(recv.Type()); n != nil {
				return path + "." + n.Obj().Name() + "." + fn.Name()
			}
		}
	}
	return path + "." + obj.Name()
}

// namedOf returns the named type T of T or *T, or nil.
func namedOf(t types.Type) *types.Named {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// TestNoDeadExports fails on an exported identifier of the engine's
// packages that no non-test file uses — of its own package, of another,
// or of the benchmark module — unless testdata/dead_exports.txt lists
// it with a reason. A listed identifier that gained a caller, or is gone,
// fails too, so the list only shrinks. The technique is that of
// golang.org/x/tools/cmd/deadcode and staticcheck's U1000, on go/types:
// export data from `go list -export` for imports, each package of the
// module type-checked from source.
func TestNoDeadExports(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		goBin = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	listed := goList(t, goBin, root)
	listed = append(listed, goList(t, goBin, filepath.Join(root, "bench"))...)

	exports := map[string]string{}
	var srcPkgs []listedPkg
	seen := map[string]bool{}
	for _, p := range listed {
		if _, ok := exports[p.ImportPath]; !ok && p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.Module == nil || seen[p.ImportPath] {
			continue
		}
		if m := p.Module.Path; m == "repro" || m == "repro/bench" {
			seen[p.ImportPath] = true
			srcPkgs = append(srcPkgs, p)
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(f)
	})

	// Type-check every package; record the candidates (exported
	// package-level objects and methods of the non-exempt packages),
	// each use, and the interfaces in sight.
	type decl struct {
		obj types.Object
		pos token.Position
	}
	candidates := map[string]decl{}
	used := map[string]token.Position{}
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	checked := map[string]*types.Package{}
	addIfaces := func(pkg *types.Package) {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	stdSeen := map[string]bool{}
	for _, p := range srcPkgs {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		// Uses holds the selector of every x.f too, promoted methods
		// included, so it alone sees every use.
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		addIfaces(pkg)
		for _, dep := range pkg.Imports() {
			if !strings.HasPrefix(dep.Path(), "repro") && !stdSeen[dep.Path()] {
				stdSeen[dep.Path()] = true
				addIfaces(dep)
			}
		}
		for id, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			if obj.Pkg() == nil || !obj.Exported() {
				continue
			}
			if key := objKey(obj); used[key] == (token.Position{}) {
				used[key] = fset.Position(id.Pos())
			}
		}
		if p.Module.Path != "repro" || deadExempt(p.ImportPath) || pkg.Name() == "main" {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				candidates[objKey(obj)] = decl{obj, fset.Position(obj.Pos())}
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			// An exported method of an unexported type is reached only
			// through an interface, often an anonymous one such as
			// errors.Unwrap's, so only exported types' methods count.
			named, ok := tn.Type().(*types.Named)
			if !ok || !tn.Exported() || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					candidates[objKey(m)] = decl{m, fset.Position(m.Pos())}
				}
			}
		}
	}

	// Methods of the types the public API reaches are public too.
	apiTypes := map[string]bool{}
	var reach func(types.Type)
	reach = func(typ types.Type) {
		switch u := types.Unalias(typ).(type) {
		case *types.Named:
			obj := u.Origin().Obj()
			if obj.Pkg() == nil || apiTypes[objKey(obj)] {
				return
			}
			apiTypes[objKey(obj)] = true
			for i := 0; i < u.TypeArgs().Len(); i++ {
				reach(u.TypeArgs().At(i))
			}
			reach(u.Underlying())
			for i := 0; i < u.NumMethods(); i++ {
				if m := u.Method(i); m.Exported() {
					reach(m.Type())
				}
			}
		case *types.Pointer:
			reach(u.Elem())
		case *types.Slice:
			reach(u.Elem())
		case *types.Array:
			reach(u.Elem())
		case *types.Map:
			reach(u.Key())
			reach(u.Elem())
		case *types.Chan:
			reach(u.Elem())
		case *types.Signature:
			for _, tup := range []*types.Tuple{u.Params(), u.Results()} {
				for i := 0; i < tup.Len(); i++ {
					reach(tup.At(i).Type())
				}
			}
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if f := u.Field(i); f.Exported() || f.Embedded() {
					reach(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < u.NumMethods(); i++ {
				reach(u.Method(i).Type())
			}
		}
	}
	for _, path := range apiRoots {
		pkg := checked[path]
		if pkg == nil {
			t.Fatalf("package %s was not type-checked", path)
		}
		for _, name := range pkg.Scope().Names() {
			if obj := pkg.Scope().Lookup(name); obj.Exported() {
				reach(obj.Type())
			}
		}
	}

	implementsIface := func(m *types.Func) bool {
		recv := m.Type().(*types.Signature).Recv().Type()
		named := namedOf(recv)
		ptr := types.NewPointer(named)
		for _, it := range ifaces {
			if obj, _, _ := types.LookupFieldOrMethod(it, false, nil, m.Name()); obj == nil {
				continue
			}
			if types.Implements(named, it) || types.Implements(ptr, it) {
				return true
			}
		}
		return false
	}

	dead := map[string]token.Position{}
	for key, d := range candidates {
		if _, ok := used[key]; ok {
			continue
		}
		if m, ok := d.obj.(*types.Func); ok && m.Type().(*types.Signature).Recv() != nil {
			if apiTypes[objKey(namedOf(m.Type().(*types.Signature).Recv().Type()).Obj())] || implementsIface(m) {
				continue
			}
		}
		dead[key] = d.pos
	}

	// Compare with the ratchet.
	f, err := os.Open(deadExportsFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	entries := map[string]bool{}
	sc := bufio.NewScanner(f)
	for line := 0; sc.Scan(); {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 || !deadExportReasons[fields[1]] {
			t.Errorf("%s:%d: want \"<identifier> hook|reference\", got %q", deadExportsFile, line, text)
			continue
		}
		entries[fields[0]] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	rel := func(pos token.Position) string {
		if r, err := filepath.Rel(root, pos.Filename); err == nil {
			pos.Filename = r
		}
		return pos.String()
	}
	var msgs []string
	for key, pos := range dead {
		if !entries[key] {
			msgs = append(msgs, fmt.Sprintf("%s (%s) is exported, but no non-test file uses it: delete it, unexport it, or list it in %s as hook or reference", key, rel(pos), deadExportsFile))
		}
	}
	for key := range entries {
		if _, ok := dead[key]; ok {
			continue
		}
		if pos, ok := used[key]; ok {
			msgs = append(msgs, fmt.Sprintf("%s is listed in %s but is used at %s: remove its line", key, deadExportsFile, rel(pos)))
		} else if _, ok := candidates[key]; ok {
			msgs = append(msgs, fmt.Sprintf("%s is listed in %s but is public API (an interface method or a method of a type the facade reaches): remove its line", key, deadExportsFile))
		} else {
			msgs = append(msgs, fmt.Sprintf("%s is listed in %s but no longer exists: remove its line", key, deadExportsFile))
		}
	}
	sort.Strings(msgs)
	for _, m := range msgs {
		t.Error(m)
	}
}
