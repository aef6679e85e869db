package zipflm

// The export rule, as a test. An exported func, method, type, const or var
// of a package under internal/ must be referenced — outside its own
// declaration — by non-test code of any package in either module (cmd/
// and benchmark/ included), or by a _test.go file of a
// *different* package. An export that only its own package's tests reach
// buys nothing: those tests can use unexported names. Delete it with the
// tests of its behaviour, or — when a surviving test needs it as an oracle,
// fixture or observation point — unexport it or move it into a _test.go.
//
// The scan is type-aware and uses only the standard library: `go list
// -export -deps -json ./...` in both module roots names every package's
// source files and compiled export data, go/types checks each package's
// sources (tests included) against that export data, and types.Info.Uses
// says who reads what. A method counts as read when an interface method it
// implements is: the standard library's interfaces always are
// (fmt.Stringer, http.Handler, error, …), this repository's when a
// qualifying reader calls them.

import (
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
	"regexp"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names exports the rule would flag and the reason each
// stays. Key: "import/path.Name" or "import/path.Type.Method".
var exportAllowlist = map[string]string{}

// listedPkg is the part of `go list -json` the scan reads.
type listedPkg struct {
	ImportPath   string
	Dir          string
	Name         string
	Export       string
	Standard     bool
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	TestImports  []string
	XTestImports []string
}

// goList runs `go list -export -deps -json` on patterns in dir.
func goList(t *testing.T, dir string, patterns ...string) []listedPkg {
	t.Helper()
	cmd := exec.Command("go", append([]string{"list", "-export", "-deps", "-json"}, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.String())
	}
	var pkgs []listedPkg
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs
		} else if err != nil {
			t.Fatalf("go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
}

// listModule lists every package of the module rooted at dir with its
// dependencies, those only its tests import included.
func listModule(t *testing.T, dir string) []listedPkg {
	listed := goList(t, dir, "./...")
	have := map[string]bool{}
	for _, p := range listed {
		have[p.ImportPath] = true
	}
	var testOnly []string
	for _, p := range listed {
		if p.Standard {
			continue
		}
		for _, imp := range append(append([]string{}, p.TestImports...), p.XTestImports...) {
			if !have[imp] {
				have[imp] = true
				testOnly = append(testOnly, imp)
			}
		}
	}
	if len(testOnly) > 0 {
		listed = append(listed, goList(t, dir, testOnly...)...)
	}
	return listed
}

// readers is who references one object: non-test code anywhere, and the
// packages whose tests do.
type readers struct {
	nonTest  bool
	testPkgs map[string]bool
}

// exportScan accumulates declarations, reads and interface links across
// every package of both modules.
type exportScan struct {
	fset  *token.FileSet
	decls map[string]token.Position // checked exports: key → where declared
	owner map[string]string         // key → declaring import path
	reads map[string]*readers
	// links[k] lists the interface methods through which concrete method k
	// can be called; "" stands for a standard-library interface, whose
	// callers are outside the scan.
	links map[string]map[string]bool
	// stdIfaces are the exported interfaces of every standard-library
	// package a scanned package imports, plus error.
	stdIfaces map[*types.Interface]bool
}

// readOutside reports whether key is read by non-test code, or by the tests
// of a package other than owner.
func (s *exportScan) readOutside(key, owner string) bool {
	r := s.reads[key]
	if r == nil {
		return false
	}
	for testPkg := range r.testPkgs {
		if testPkg != owner {
			return true
		}
	}
	return r.nonTest
}

// recvType returns the named type a method is declared on, nil for a
// function or a method of an unnamed interface.
func recvType(fn *types.Func) *types.TypeName {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

// objKey names a package-level object or a method of a named type; "" for
// anything else (locals, fields, methods of unnamed interfaces).
func objKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
		if tn := recvType(fn.Origin()); tn != nil && tn.Pkg() != nil {
			return tn.Pkg().Path() + "." + tn.Name() + "." + fn.Name()
		}
		return ""
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// declare registers obj as an export the rule checks. A method is one only
// if its type is; an interface's methods are registered with it.
func (s *exportScan) declare(obj types.Object) {
	key := objKey(obj)
	if key == "" || !obj.Exported() {
		return
	}
	if fn, ok := obj.(*types.Func); ok {
		if tn := recvType(fn); tn != nil && !tn.Exported() {
			return
		}
	}
	s.decls[key] = s.fset.Position(obj.Pos())
	s.owner[key] = obj.Pkg().Path()
	if tn, ok := obj.(*types.TypeName); ok {
		if it, ok := tn.Type().Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumExplicitMethods(); i++ {
				s.declare(it.ExplicitMethod(i))
			}
		}
	}
}

// recordUses notes every object referenced under n as read by readerPkg's
// tests or non-test code, except references to self — the declaration n
// belongs to.
func (s *exportScan) recordUses(info *types.Info, n ast.Node, self, readerPkg string, test bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		key := objKey(info.Uses[id])
		if key == "" || key == self {
			return true
		}
		r := s.reads[key]
		if r == nil {
			r = &readers{testPkgs: map[string]bool{}}
			s.reads[key] = r
		}
		if test {
			r.testPkgs[readerPkg] = true
		} else {
			r.nonTest = true
		}
		return true
	})
}

// scanPackage type-checks the named files of dir as package path and
// records what they read and — when declare is set — what their non-test
// files export. readerPkg is the package the files' tests belong to: path
// itself, or path minus "_test" for an external test package.
func (s *exportScan) scanPackage(t *testing.T, imp types.Importer, path, readerPkg, dir string, names []string, declare bool) *types.Package {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}
	pkg, err := (&types.Config{Importer: imp}).Check(path, s.fset, files, info)
	if err != nil {
		t.Fatalf("type-check %s: %v", path, err)
	}
	for i, f := range files {
		test := strings.HasSuffix(names[i], "_test.go")
		def := func(id *ast.Ident) string {
			if declare && !test {
				s.declare(info.Defs[id])
			}
			return objKey(info.Defs[id])
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				// Not d.Recv: a receiver names its type as part of the
				// method's own declaration, not as a reader of the type.
				self := def(d.Name)
				s.recordUses(info, d.Type, self, readerPkg, test)
				if d.Body != nil {
					s.recordUses(info, d.Body, self, readerPkg, test)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						s.recordUses(info, sp, def(sp.Name), readerPkg, test)
					case *ast.ValueSpec:
						for _, id := range sp.Names {
							def(id)
						}
						s.recordUses(info, sp, "", readerPkg, test)
					}
				}
			}
		}
	}
	for _, dep := range pkg.Imports() {
		if !strings.HasPrefix(dep.Path(), "zipflm") {
			for _, named := range namedTypes(dep, false) {
				if it, ok := named.Underlying().(*types.Interface); ok {
					s.stdIfaces[it] = true
				}
			}
		}
	}
	return pkg
}

// namedTypes returns p's package-level non-generic named types: all of
// them, or only the exported ones.
func namedTypes(p *types.Package, unexported bool) []*types.Named {
	var out []*types.Named
	for _, name := range p.Scope().Names() {
		tn, ok := p.Scope().Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() || !(unexported || tn.Exported()) {
			continue
		}
		if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() == 0 {
			out = append(out, named)
		}
	}
	return out
}

// linkInterfaces records, for every interface and every concrete named
// type visible from pkg (its own and its direct imports'), which concrete
// methods the interface's methods dispatch to. Both sides come from pkg's
// own type-checking universe, so types.Implements compares like with like.
func (s *exportScan) linkInterfaces(pkg *types.Package) {
	visible := namedTypes(pkg, true)
	for _, dep := range pkg.Imports() {
		if strings.HasPrefix(dep.Path(), "zipflm") {
			visible = append(visible, namedTypes(dep, false)...)
		}
	}
	ifaces := map[*types.Interface]bool{} // → declared by the standard library
	for it := range s.stdIfaces {
		ifaces[it] = true
	}
	var concrete []*types.Named
	for _, named := range visible {
		if it, ok := named.Underlying().(*types.Interface); ok {
			ifaces[it] = false
		} else if named.NumMethods() > 0 {
			concrete = append(concrete, named)
		}
	}
	for _, named := range concrete {
		ptr := types.NewPointer(named)
		for it, std := range ifaces {
			if it.NumMethods() == 0 || !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				impl, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name())
				ck := objKey(impl)
				if ck == "" {
					continue
				}
				if s.links[ck] == nil {
					s.links[ck] = map[string]bool{}
				}
				if std {
					s.links[ck][""] = true
				} else {
					s.links[ck][objKey(m)] = true
				}
			}
		}
	}
}

func TestExportsHaveReaders(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not on PATH")
	}
	s := &exportScan{
		fset:      token.NewFileSet(),
		decls:     map[string]token.Position{},
		owner:     map[string]string{},
		reads:     map[string]*readers{},
		links:     map[string]map[string]bool{},
		stdIfaces: map[*types.Interface]bool{},
	}
	s.stdIfaces[types.Universe.Lookup("error").Type().Underlying().(*types.Interface)] = true

	// Both modules: the repository and the stand-alone benchmark, which
	// imports internal/ through a replace directive.
	exports := map[string]string{}
	seen := map[string]bool{}
	var pkgs []listedPkg
	for _, dir := range []string{".", "benchmark"} {
		for _, p := range listModule(t, dir) {
			if seen[p.ImportPath] {
				continue
			}
			seen[p.ImportPath] = true
			exports[p.ImportPath] = p.Export
			if !p.Standard {
				pkgs = append(pkgs, p)
			}
		}
	}
	imp := importer.ForCompiler(s.fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exports[path])
	})

	var checked []*types.Package
	for _, p := range pkgs {
		declare := p.Name != "main" && strings.Contains(p.ImportPath, "/internal/")
		files := append(append([]string{}, p.GoFiles...), p.TestGoFiles...)
		checked = append(checked, s.scanPackage(t, imp, p.ImportPath, p.ImportPath, p.Dir, files, declare))
		if len(p.XTestGoFiles) > 0 {
			checked = append(checked, s.scanPackage(t, imp, p.ImportPath+"_test", p.ImportPath, p.Dir, p.XTestGoFiles, false))
		}
	}
	for _, pkg := range checked {
		s.linkInterfaces(pkg)
	}
	if len(s.decls) < 100 {
		t.Fatalf("the scan saw only %d exports under internal/: it is not looking at the repository", len(s.decls))
	}

	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var unread []string
	for key, pos := range s.decls {
		read := s.links[key][""] || s.readOutside(key, s.owner[key])
		for via := range s.links[key] {
			read = read || s.readOutside(via, s.owner[key])
		}
		why, allowed := exportAllowlist[key]
		switch {
		case read && allowed:
			t.Errorf("allowlist entry %s (%s) has a reader now: remove it", key, why)
		case !read && !allowed:
			file, err := filepath.Rel(wd, pos.Filename)
			if err != nil {
				file = pos.Filename
			}
			unread = append(unread, fmt.Sprintf("%s (%s:%d)", key, file, pos.Line))
		}
	}
	for key, why := range exportAllowlist {
		if _, ok := s.decls[key]; !ok {
			t.Errorf("allowlist entry %s (%s) names no export: remove it", key, why)
		}
	}
	sort.Strings(unread)
	if len(unread) > 0 {
		t.Errorf("%d exported symbols under internal/ have no reader outside their own package's tests "+
			"(delete them, unexport them, or move them into a _test.go file):\n  %s",
			len(unread), strings.Join(unread, "\n  "))
	}
}

// TestCommandsAreExercised: every command under cmd/ is run by something —
// a _test.go of its own, or a step of the CI workflow whose shell names
// ./cmd/<name> (YAML and shell comments do not count). A command nothing
// runs can stop building or drift from what it claims unnoticed; delete it,
// or test it.
func TestCommandsAreExercised(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	// The shell of every step: a `run:` line's value, or the lines of its
	// block indented deeper than the key.
	var shell strings.Builder
	lines := strings.Split(string(ci), "\n")
	indent := func(s string) int { return len(s) - len(strings.TrimLeft(s, " ")) }
	for i := 0; i < len(lines); i++ {
		body, ok := strings.CutPrefix(strings.TrimSpace(lines[i]), "run:")
		if !ok {
			continue
		}
		shell.WriteString(body + "\n")
		for key := indent(lines[i]); i+1 < len(lines) && (strings.TrimSpace(lines[i+1]) == "" || indent(lines[i+1]) > key); i++ {
			if !strings.HasPrefix(strings.TrimSpace(lines[i+1]), "#") {
				shell.WriteString(lines[i+1] + "\n")
			}
		}
	}

	dirs, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		tests, err := filepath.Glob(filepath.Join("cmd", d.Name(), "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		ran := regexp.MustCompile(`\./cmd/` + regexp.QuoteMeta(d.Name()) + `([^\w-]|$)`).MatchString(shell.String())
		if len(tests) == 0 && !ran {
			t.Errorf("cmd/%s has no _test.go and no CI step runs it", d.Name())
		}
	}
}
