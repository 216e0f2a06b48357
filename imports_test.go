package dmfb_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestEveryInternalPackageHasImporter keeps the module free of packages
// that nothing runs: each internal/<pkg> must be imported by at least one
// non-test file outside that package. The walk covers the whole module
// tree, the nested perfbench module included, since it builds against the
// root module's internal packages.
func TestEveryInternalPackageHasImporter(t *testing.T) {
	entries, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	importers := map[string]int{} // internal package name -> importing files
	for _, e := range entries {
		if e.IsDir() {
			importers[e.Name()] = 0
		}
	}
	walkNonTestGo(t, parser.ImportsOnly, func(p string, f *ast.File) {
		dir := filepath.ToSlash(filepath.Dir(p))
		for _, imp := range f.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			pkg, ok := strings.CutPrefix(ip, "dmfb/internal/")
			if !ok || dir == path.Join("internal", pkg) {
				continue
			}
			if _, tracked := importers[pkg]; tracked {
				importers[pkg]++
			}
		}
	})
	var orphans []string
	for pkg, n := range importers {
		if n == 0 {
			orphans = append(orphans, pkg)
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Errorf("internal packages with no non-test importer: %s", strings.Join(orphans, ", "))
	}
}

// TestDeprecatedMemoStubHasNoCallers keeps the removed feasibility memo
// from coming back through its deprecated stub: reconfig.Session.EnableMemo
// and reconfig.DefaultMemoCapacity survive only for the perfbench module,
// so no other non-test file may name them.
func TestDeprecatedMemoStubHasNoCallers(t *testing.T) {
	var callers []string
	walkNonTestGo(t, parser.SkipObjectResolution, func(p string, f *ast.File) {
		p = filepath.ToSlash(p)
		if strings.HasPrefix(p, "perfbench/") || p == "internal/reconfig/session.go" {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && (id.Name == "EnableMemo" || id.Name == "DefaultMemoCapacity") {
				callers = append(callers, fmt.Sprintf("%s: %s", p, id.Name))
			}
			return true
		})
	})
	if len(callers) > 0 {
		t.Errorf("deprecated memo stub referenced by %s", strings.Join(callers, ", "))
	}
}

// walkNonTestGo parses every non-test .go file of the module tree, the
// nested perfbench module included, in the given parser mode and hands
// each to fn with its path relative to the module root. Hidden
// directories and testdata are skipped.
func walkNonTestGo(t *testing.T, mode parser.Mode, fn func(p string, f *ast.File)) {
	t.Helper()
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
		f, err := parser.ParseFile(fset, p, nil, mode)
		if err != nil {
			return err
		}
		fn(p, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
