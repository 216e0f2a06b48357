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
	"strconv"
	"strings"
	"testing"
)

// TestEveryInternalPackageHasImporter keeps the module free of packages
// that nothing runs: each internal/<pkg> must be reachable, through the
// imports of non-test files, from a root outside internal/ and examples/.
// The roots are the root package and every package under client/, cmd/,
// scripts/ and perfbench/; a package only an example keeps alive fails.
// The walk covers the nested perfbench module too, since it builds
// against the root module's internal packages.
func TestEveryInternalPackageHasImporter(t *testing.T) {
	imports := map[string][]string{} // package dir -> imported package dirs
	walkNonTestGo(t, parser.ImportsOnly, func(p string, f *ast.File) {
		dir := filepath.ToSlash(filepath.Dir(p))
		for _, imp := range f.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if ip == "dmfb" {
				imports[dir] = append(imports[dir], ".")
			} else if rel, ok := strings.CutPrefix(ip, "dmfb/"); ok {
				imports[dir] = append(imports[dir], rel)
			}
		}
	})
	reached := map[string]bool{}
	var queue []string
	for dir := range imports {
		root, _, _ := strings.Cut(dir, "/")
		switch root {
		case ".", "client", "cmd", "scripts", "perfbench":
			reached[dir] = true
			queue = append(queue, dir)
		}
	}
	for len(queue) > 0 {
		dir := queue[0]
		queue = queue[1:]
		for _, dep := range imports[dir] {
			if !reached[dep] {
				reached[dep] = true
				queue = append(queue, dep)
			}
		}
	}
	entries, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	var orphans []string
	for _, e := range entries {
		if e.IsDir() && !reached[path.Join("internal", e.Name())] {
			orphans = append(orphans, e.Name())
		}
	}
	if len(orphans) > 0 {
		t.Errorf("internal packages unreachable from the root package, client/, cmd/, scripts/ or perfbench/: %s",
			strings.Join(orphans, ", "))
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
