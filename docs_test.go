package nfr

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docSkip lists Markdown files whose content is retrieved external
// material (paper abstracts, related-work notes, exemplar snippets):
// they quote links and paths from other repositories that this one
// never promised to resolve.
var docSkip = map[string]bool{
	"PAPER.md":    true,
	"PAPERS.md":   true,
	"SNIPPETS.md": true,
	"ISSUE.md":    true,
}

// docHistory lists the files that record what the tree used to hold:
// they may name commands that are gone.
var docHistory = map[string]bool{
	"CHANGES.md": true,
	"ROADMAP.md": true,
}

// staleBenchNames lists the code spans `X.Y` that the dotted-name
// check tolerates, keyed "file: X.Y". The benchmark's own module
// changes only together with the benchmark, and its README names two
// methods by their receiver's package; the next change to the
// benchmark fixes them and empties this list (ROADMAP, smaller items).
var staleBenchNames = map[string]bool{
	filepath.Join("bench", "README.md") + ": client.Exec":  true,
	filepath.Join("bench", "README.md") + ": server.Stats": true,
}

var (
	// [text](target) — inline Markdown links, including images
	mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)
	// internal/<pkg> references in prose or code spans
	internalRef = regexp.MustCompile(`\binternal/([a-z][a-z0-9]*)`)
	// cmd/<name> references in prose, code spans or code blocks
	cmdRef = regexp.MustCompile(`\bcmd/[a-z][a-z0-9-]*`)
	// `...` code spans, and the nfr-<name> commands named inside them
	codeSpan = regexp.MustCompile("`[^`\n]+`")
	nfrName  = regexp.MustCompile(`\bnfr-[a-z]+`)
	// a test, fuzz target or benchmark named inside a code span, and its
	// declaration in a _test.go file
	testName = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z]\w*`)
	testDecl = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w+)\(`)
	// a Markdown file cited, bare or with a path, in a Go comment
	goComment = regexp.MustCompile(`//.*`)
	mdInGo    = regexp.MustCompile(`[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b`)
	// a dotted Go name inside a code span: pkg.Name, Type.Member, or a
	// chain such as pkg.Type.Member
	dottedName = regexp.MustCompile(`[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+`)
)

// TestDocIntegrity walks every Markdown file in the repository and
// fails on broken relative links, on references to internal/ packages
// that do not exist, and on commands (cmd/<name>, `nfr-<name>`) that
// have no directory under cmd/, and on a test, fuzz target or benchmark
// named in a code span that no _test.go declares, and on a code span
// `X.Y` where X is a package or type of the non-test Go and Y is an
// exported name X does not declare — so the docs can't silently rot as
// the code moves (the doc-map in ARCHITECTURE.md depends on this). A
// Markdown file cited in a Go comment must exist too, from the root or
// from the comment's own directory.
func TestDocIntegrity(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var mdFiles, goFiles []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == ".git" || name == ".claude" || (strings.HasPrefix(name, ".") && path != root) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".md") && !docSkip[d.Name()] {
			mdFiles = append(mdFiles, path)
		}
		if strings.HasSuffix(d.Name(), ".go") {
			goFiles = append(goFiles, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mdFiles) < 4 {
		t.Fatalf("found only %d Markdown files — doc walk broken?", len(mdFiles))
	}

	members := goMembers(t, goFiles)
	declared := make(map[string]bool)
	for _, path := range goFiles {
		rel, _ := filepath.Rel(root, path)
		body, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, m := range testDecl.FindAllSubmatch(body, -1) {
				declared[string(m[1])] = true
			}
		}
		for _, comment := range goComment.FindAllString(string(body), -1) {
			for _, name := range mdInGo.FindAllString(comment, -1) {
				_, fromRoot := os.Stat(filepath.Join(root, name))
				_, fromDir := os.Stat(filepath.Join(filepath.Dir(path), name))
				if fromRoot != nil && fromDir != nil {
					t.Errorf("%s: comment cites nonexistent %s", rel, name)
				}
			}
		}
	}

	for _, path := range mdFiles {
		rel, _ := filepath.Rel(root, path)
		body, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		text := string(body)

		for _, m := range mdLink.FindAllStringSubmatch(text, -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "#") ||
				strings.HasPrefix(target, "mailto:") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(path), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken relative link %q", rel, m[1])
			}
		}

		for _, m := range internalRef.FindAllStringSubmatch(text, -1) {
			pkg := filepath.Join(root, "internal", m[1])
			if fi, err := os.Stat(pkg); err != nil || !fi.IsDir() {
				t.Errorf("%s: references nonexistent package internal/%s", rel, m[1])
			}
		}

		if docHistory[filepath.Base(path)] {
			continue
		}
		cmds := cmdRef.FindAllString(text, -1)
		for _, span := range codeSpan.FindAllString(text, -1) {
			cmds = append(cmds, nfrName.FindAllString(span, -1)...)
			for _, name := range testName.FindAllString(span, -1) {
				if !declared[name] {
					t.Errorf("%s: cites %s, which no _test.go declares", rel, name)
				}
			}
			for _, name := range dottedName.FindAllString(span, -1) {
				parts := strings.Split(name, ".")
				for i := 0; i+1 < len(parts); i++ {
					x, y := parts[i], parts[i+1]
					if ms, ok := members[x]; ok && ast.IsExported(y) && !ms[y] && !staleBenchNames[rel+": "+x+"."+y] {
						t.Errorf("%s: cites %s.%s, which the Go code does not declare", rel, x, y)
					}
				}
			}
		}
		for _, name := range cmds {
			dir := filepath.Join(root, "cmd", strings.TrimPrefix(name, "cmd/"))
			if name == "nfr-spine" { // the benchmark: a module of its own
				dir = filepath.Join(root, "bench")
			}
			if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
				t.Errorf("%s: references nonexistent command %s", rel, name)
			}
		}
	}
}

// goMembers parses the non-test Go files and maps every package name
// and every declared type to the names it qualifies: a package's
// top-level funcs, types, vars and consts; a type's methods, fields and
// interface methods.
func goMembers(t *testing.T, files []string) map[string]map[string]bool {
	members := make(map[string]map[string]bool)
	add := func(x, y string) {
		if members[x] == nil {
			members[x] = make(map[string]bool)
		}
		if y != "" {
			members[x][y] = true
		}
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		pkg := f.Name.Name
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(pkg, d.Name.Name)
				} else {
					add(baseTypeName(d.Recv.List[0].Type), d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(pkg, n.Name)
						}
					case *ast.TypeSpec:
						typ := s.Name.Name
						add(pkg, typ)
						add(typ, "")
						var fields []*ast.Field
						switch tt := s.Type.(type) {
						case *ast.StructType:
							fields = tt.Fields.List
						case *ast.InterfaceType:
							fields = tt.Methods.List
						}
						for _, fd := range fields {
							for _, n := range fd.Names {
								add(typ, n.Name)
							}
							if len(fd.Names) == 0 { // embedded
								add(typ, baseTypeName(fd.Type))
							}
						}
					}
				}
			}
		}
	}
	return members
}

// baseTypeName is the name of the type a receiver or embedded field
// refers to, without pointer, package qualifier or type arguments.
func baseTypeName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.StarExpr:
		return baseTypeName(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.IndexExpr:
		return baseTypeName(x.X)
	case *ast.IndexListExpr:
		return baseTypeName(x.X)
	}
	return ""
}
