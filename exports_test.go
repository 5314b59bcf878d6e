package eree

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyExports lists the exported package-level functions under
// internal/ that no non-test file names, each with the reason it stays
// in production code rather than in the _test.go files of its callers.
// Anything else that only tests call belongs in those test files.
var testOnlyExports = map[string]string{
	"internal/lodes.LargeConfig":           "paper-scale dataset config shared by the large-scale tests and benchmarks of several packages",
	"internal/lodes.MustGenerate":          "dataset fixture shared by the tests of many packages",
	"internal/mech.ReleaseCellsSequential": "per-cell reference loop the batch release path is tested against; gated by BenchmarkReleaseCellsSequential in the root package",
	"internal/smooth.ExpectedL1":           "Lemma 8.8's closed-form error, the oracle of both smooth's and mech's sampling tests",
	"internal/table.ComputeReference":      "scalar group-by oracle that core's epoch tests and table's differential suites compare against",
	"internal/table.MustNewQuery":          "query fixture shared by the tests of many packages",
}

// TestNoTestOnlyExports fails when an exported package-level function
// declared in a non-test file under internal/ is named by no non-test
// code of the module or of benchmark/ outside its own declaration,
// unless testOnlyExports names it; and when an allow-listed function
// no longer exists or has gained a non-test caller. It matches names,
// not types: a qualified pkg.Name, or a bare Name inside the package.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct{ pkg, name, file string }
	var decls []decl
	named := map[string]bool{} // "pkgdir.Name" named by some non-test code
	note := func(key string) { named[key] = true }
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		// Imports of repro/internal/... packages by local name.
		imports := map[string]string{}
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			rel, ok := strings.CutPrefix(ip, "repro/")
			if !ok || !strings.HasPrefix(rel, "internal/") {
				continue
			}
			local := path.Base(rel)
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = rel
		}
		for _, dl := range f.Decls {
			if fd, ok := dl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() &&
				strings.HasPrefix(dir, "internal/") {
				decls = append(decls, decl{dir, fd.Name.Name, p})
			}
		}
		// A selector's Sel is a field, a method or a qualified name,
		// never a reference to a function of this package: visit only X.
		// A function's own declaration and body do not count as naming it.
		self := ""
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if rel, ok := imports[x.Name]; ok {
						note(rel + "." + n.Sel.Name)
						return false
					}
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				if n.Name != self {
					note(dir + "." + n.Name)
				}
			}
			return true
		}
		for _, dl := range f.Decls {
			self = ""
			if fd, ok := dl.(*ast.FuncDecl); ok && fd.Recv == nil {
				self = fd.Name.Name
			}
			ast.Inspect(dl, visit)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no exported functions found under internal/; is the test running from the module root?")
	}
	seen := map[string]bool{}
	var bad []string
	for _, d := range decls {
		key := d.pkg + "." + d.name
		seen[key] = true
		_, allowed := testOnlyExports[key]
		switch {
		case !named[key] && !allowed:
			bad = append(bad, key+" ("+d.file+"): only tests call it; move it into their _test.go files or delete it")
		case named[key] && allowed:
			bad = append(bad, key+": has a non-test caller now; drop it from testOnlyExports")
		}
	}
	for key := range testOnlyExports {
		if !seen[key] {
			bad = append(bad, key+": allow-listed but not declared; drop it from testOnlyExports")
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}
