package featgraph_test

// The exported-surface guard: every exported top-level name and method in
// internal/ must have a caller outside the tests. Names that only tests use
// are listed, each with its reason, in surface_allow.txt.

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestExportedSurface fails on an exported name in internal/ that no
// non-test file in the repository uses (benchmark/ included), and on an
// allowlist entry that is gone, now used, or carries no reason.
func TestExportedSurface(t *testing.T) {
	problems, err := scanSurface(".", "surface_allow.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestExportedSurfaceReportsFileLine runs the scanner over a small tree
// (testdata/surface) with one unreferenced exported func and three stale
// allowlist entries: a name that is gone, one that is used, and one with
// no reason.
func TestExportedSurfaceReportsFileLine(t *testing.T) {
	root := filepath.Join("testdata", "surface")
	allow := filepath.Join(root, "allow.txt")
	problems, err := scanSurface(root, allow)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		allow + ":3: allowlist entry internal/lib.Gone: no such exported name",
		allow + ":4: allowlist entry internal/lib.Used: now used outside tests; remove the entry",
		allow + ":5: allowlist entry internal/lib.T.Method: no reason given",
		filepath.Join(root, "internal", "lib", "lib.go") + ":16: func internal/lib.Unused has no non-test reference",
	}
	if got := strings.Join(problems, "\n"); got != strings.Join(want, "\n") {
		t.Fatalf("problems:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
	}
}

// surfaceDecl is one exported declaration: its key ("internal/pkg.Name" or
// "internal/pkg.Type.Method"), its kind, its method name (empty for a
// top-level name) and where it is declared.
type surfaceDecl struct {
	key, kind, method string
	pos               token.Position
}

// scanSurface parses every non-test Go file under root and returns one
// "file:line: message" line per exported internal/ name without a use, and
// per allowlist entry that is gone, used, or has no reason.
//
// A top-level name counts as used when written as pkg.Name in a file that
// imports its package, or bare in a file of its own package outside its
// own declaration. A method counts as used when any file selects .Method
// on anything: the scan does not resolve types. Blank assertions such as
// var _ I = (*T)(nil) are not uses.
func scanSurface(root, allowFile string) ([]string, error) {
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var decls []surfaceDecl
	used := map[string]bool{}     // "dir.Name" written as a use
	selected := map[string]bool{} // every name selected as x.Name
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(rel)
		if dir == "internal" || strings.HasPrefix(dir, "internal/") {
			decls = append(decls, fileDecls(fset, dir, f)...)
		}
		fileUses(mod, dir, f, used, selected)
		return nil
	})
	if err != nil {
		return nil, err
	}
	allow, err := readAllowlist(allowFile)
	if err != nil {
		return nil, err
	}

	isUsed := func(d surfaceDecl) bool {
		if d.method != "" {
			return selected[d.method]
		}
		return used[d.key]
	}
	type problem struct {
		file string
		line int
		msg  string
	}
	var problems []problem
	declared := map[string]surfaceDecl{}
	for _, d := range decls {
		declared[d.key] = d
		if _, ok := allow[d.key]; ok || isUsed(d) {
			continue
		}
		problems = append(problems, problem{d.pos.Filename, d.pos.Line, fmt.Sprintf("%s %s has no non-test reference", d.kind, d.key)})
	}
	for key, e := range allow {
		d, ok := declared[key]
		msg := ""
		switch {
		case !ok:
			msg = "no such exported name"
		case e.reason == "":
			msg = "no reason given"
		case isUsed(d):
			msg = "now used outside tests; remove the entry"
		default:
			continue
		}
		problems = append(problems, problem{allowFile, e.line, fmt.Sprintf("allowlist entry %s: %s", key, msg)})
	}
	sort.Slice(problems, func(i, j int) bool {
		if problems[i].file != problems[j].file {
			return problems[i].file < problems[j].file
		}
		return problems[i].line < problems[j].line
	})
	out := make([]string, len(problems))
	for i, p := range problems {
		out[i] = fmt.Sprintf("%s:%d: %s", p.file, p.line, p.msg)
	}
	return out, nil
}

// modulePath reads the module line of a go.mod.
func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// fileDecls lists f's exported top-level names and exported methods.
func fileDecls(fset *token.FileSet, dir string, f *ast.File) []surfaceDecl {
	var out []surfaceDecl
	add := func(id *ast.Ident, kind, method, key string) {
		if id.IsExported() {
			out = append(out, surfaceDecl{key: key, kind: kind, method: method, pos: fset.Position(id.Pos())})
		}
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil {
				add(decl.Name, "func", "", dir+"."+decl.Name.Name)
			} else {
				add(decl.Name, "method", decl.Name.Name, dir+"."+recvType(decl.Recv.List[0].Type)+"."+decl.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					add(spec.Name, "type", "", dir+"."+spec.Name.Name)
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						add(id, decl.Tok.String(), "", dir+"."+id.Name)
					}
				}
			}
		}
	}
	return out
}

// recvType names a receiver's base type: T for T, *T, T[P] and *T[P].
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// fileUses records f's uses: pkg.Name through an import of a package of
// this module, bare names of f's own package (dir), and every name
// selected off a value.
func fileUses(mod, dir string, f *ast.File, used, selected map[string]bool) {
	imports := map[string]string{} // local name → package dir
	for _, imp := range f.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		rel, ok := strings.CutPrefix(p, mod+"/")
		if !ok {
			continue
		}
		local := path.Base(p)
		if imp.Name != nil {
			local = imp.Name.Name
		}
		imports[local] = rel
	}
	for _, decl := range f.Decls {
		// Names a declaration defines, and its own name, are not uses.
		// A receiver is not walked: it names the method's own type.
		skip := map[*ast.Ident]bool{}
		type part struct {
			node ast.Node
			self string
		}
		var walk []part
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			self := ""
			if decl.Recv == nil {
				self = decl.Name.Name
			}
			walk = append(walk, part{decl.Type, self})
			if decl.Body != nil {
				walk = append(walk, part{decl.Body, self})
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					walk = append(walk, part{spec, spec.Name.Name})
				case *ast.ValueSpec:
					if len(spec.Names) == 1 && spec.Names[0].Name == "_" {
						continue // a compile-time assertion
					}
					walk = append(walk, part{spec, ""})
				}
			}
		}
		for _, w := range walk {
			self := w.self
			ast.Inspect(w.node, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					skip[n.Sel] = true
					if x, ok := n.X.(*ast.Ident); ok {
						if pkg, ok := imports[x.Name]; ok {
							used[pkg+"."+n.Sel.Name] = true
							return false
						}
					}
					selected[n.Sel.Name] = true
				case *ast.TypeSpec:
					skip[n.Name] = true
				case *ast.ValueSpec:
					for _, id := range n.Names {
						skip[id] = true
					}
				case *ast.Field:
					for _, id := range n.Names {
						skip[id] = true
					}
				case *ast.LabeledStmt:
					skip[n.Label] = true
				case *ast.BranchStmt:
					if n.Label != nil {
						skip[n.Label] = true
					}
				case *ast.CompositeLit:
					// Struct literal keys are field names; map and array
					// literal keys are values.
					switch n.Type.(type) {
					case *ast.MapType, *ast.ArrayType, nil:
					default:
						for _, el := range n.Elts {
							if kv, ok := el.(*ast.KeyValueExpr); ok {
								if id, ok := kv.Key.(*ast.Ident); ok {
									skip[id] = true
								}
							}
						}
					}
				case *ast.Ident:
					if !skip[n] && n.Name != self {
						used[dir+"."+n.Name] = true
					}
				}
				return true
			})
		}
	}
}

// allowEntry is one allowlist line: a name tests use, and why it stays.
type allowEntry struct {
	line   int
	reason string
}

// readAllowlist parses "key reason..." lines; blank lines and lines
// starting with # are skipped.
func readAllowlist(file string) (map[string]allowEntry, error) {
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]allowEntry{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		key := fields[0]
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("%s:%d: duplicate allowlist entry %s", file, line, key)
		}
		out[key] = allowEntry{line: line, reason: strings.Join(fields[1:], " ")}
	}
	return out, sc.Err()
}
