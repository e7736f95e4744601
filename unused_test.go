package sliceline_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unusedAllowlist names exported internal functions that may lack a
// non-test caller, keyed "importpath.Func", or whole packages, keyed by
// import path.
var unusedAllowlist = map[string]bool{
	// Test oracles: the differential harness checks the optimized
	// enumeration against these, so they are kept even when only tests call
	// them directly.
	"sliceline/internal/core.RunReference": true,
	"sliceline/internal/core.BruteForce":   true,
	// The differential harness itself is a library for tests, and so is the
	// -seed flag that pins its randomized sweeps.
	"sliceline/internal/difftest":                 true,
	"sliceline/internal/datagen.RegisterSeedFlag": true,
	// Test-fixture constructors shared by several packages' tests.
	"sliceline/internal/matrix.NewDenseData": true,
	"sliceline/internal/matrix.CSRFromDense": true,
}

// TestNoUnusedInternalExports type-checks every non-test package of the
// module, plus the perfbench module that builds against it, and fails for
// each exported package-level function under internal/ that no non-test
// code references. Methods are exempt: interface satisfaction hides their
// callers.
func TestNoUnusedInternalExports(t *testing.T) {
	l := &moduleLoader{
		fset: token.NewFileSet(),
		std:  importer.ForCompiler(token.NewFileSet(), "source", nil),
		pkgs: map[string]*types.Package{},
		used: map[types.Object]bool{},
	}
	var dirs []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		if _, err := l.load(l.importPath(dir)); err != nil {
			t.Fatal(err)
		}
	}

	var unused []string
	for path, pkg := range l.pkgs {
		if !strings.HasPrefix(path, "sliceline/internal/") || unusedAllowlist[path] {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			fn, ok := scope.Lookup(name).(*types.Func)
			if !ok || !fn.Exported() || l.used[fn] || unusedAllowlist[path+"."+name] {
				continue
			}
			unused = append(unused, l.fset.Position(fn.Pos()).String()+": "+path+"."+name)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported function without a non-test caller: %s", u)
	}
}

// moduleLoader type-checks module packages from source, recording every
// object that non-test code references. Standard-library imports go to the
// source importer.
type moduleLoader struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*types.Package
	used map[types.Object]bool
}

// importPath maps a directory to its import path. perfbench is a module of
// its own, but its path sliceline/perfbench nests the same way.
func (l *moduleLoader) importPath(dir string) string {
	if dir == "." {
		return "sliceline"
	}
	return "sliceline/" + filepath.ToSlash(dir)
}

func (l *moduleLoader) dir(path string) (string, bool) {
	if path == "sliceline" {
		return ".", true
	}
	rest, ok := strings.CutPrefix(path, "sliceline/")
	return rest, ok
}

func (l *moduleLoader) Import(path string) (*types.Package, error) {
	if _, ok := l.dir(path); ok {
		return l.load(path)
	}
	return l.std.Import(path)
}

// load type-checks the non-test files of the package at path once; a
// directory without Go files yields nil.
func (l *moduleLoader) load(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	dir, _ := l.dir(path)
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
	if len(files) == 0 {
		return nil, nil
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	for _, obj := range info.Uses {
		l.used[obj] = true
	}
	l.pkgs[path] = pkg
	return pkg, nil
}
