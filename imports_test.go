package dmfb_test

import (
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
// root module's internal packages. internal/integration holds nothing but
// tests, so nothing can import it.
func TestEveryInternalPackageHasImporter(t *testing.T) {
	entries, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	importers := map[string]int{} // internal package name -> importing files
	for _, e := range entries {
		if e.IsDir() && e.Name() != "integration" {
			importers[e.Name()] = 0
		}
	}
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
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
		f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		for _, imp := range f.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			pkg, ok := strings.CutPrefix(ip, "dmfb/internal/")
			if !ok || dir == path.Join("internal", pkg) {
				continue
			}
			if _, tracked := importers[pkg]; tracked {
				importers[pkg]++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
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
