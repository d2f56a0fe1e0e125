package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The loader type-checks every package of the module with nothing beyond
// the standard library: go/parser for syntax, go/types for semantics, and
// go/importer for the export data of standard-library dependencies —
// module packages are resolved from source, recursively. Test files are
// skipped: the invariants govern shipped code, and the fixtures that *do*
// exercise the analyzers load through LoadFixture instead.

// loader resolves and type-checks packages on demand.
type loader struct {
	moduleDir  string
	modulePath string
	fset       *token.FileSet
	std        types.Importer
	pkgs       map[string]*Package
	loading    map[string]bool
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func newLoader(moduleDir, modulePath string) *loader {
	return &loader{
		moduleDir:  moduleDir,
		modulePath: modulePath,
		fset:       token.NewFileSet(),
		std:        importer.Default(),
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}
}

// LoadModule parses and type-checks every package of the module rooted at
// dir (the directory holding go.mod), excluding test files and testdata
// trees, and returns them with full type information.
func LoadModule(dir string) (*Module, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modulePath, err := readModulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	l := newLoader(abs, modulePath)
	paths, err := l.discover()
	if err != nil {
		return nil, err
	}
	for _, p := range paths {
		if _, err := l.load(p); err != nil {
			return nil, err
		}
	}
	return l.module(), nil
}

// module assembles the loaded packages into a Module.
func (l *loader) module() *Module {
	m := &Module{
		Path:   l.modulePath,
		Dir:    l.moduleDir,
		Fset:   l.fset,
		byPath: make(map[string]*Package, len(l.pkgs)),
	}
	for _, p := range l.pkgs {
		m.Pkgs = append(m.Pkgs, p)
		m.byPath[p.Path] = p
	}
	sort.Slice(m.Pkgs, func(i, j int) bool { return m.Pkgs[i].Path < m.Pkgs[j].Path })
	return m
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// discover walks the module tree and returns the import path of every
// directory holding at least one non-test Go file, in sorted order.
func (l *loader) discover() ([]string, error) {
	var out []string
	err := filepath.WalkDir(l.moduleDir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.moduleDir &&
			(name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		files, err := goFilesIn(path)
		if err != nil {
			return err
		}
		if len(files) > 0 {
			out = append(out, l.importPathOf(path))
		}
		return nil
	})
	sort.Strings(out)
	return out, err
}

// importPathOf maps a module directory to its import path.
func (l *loader) importPathOf(dir string) string {
	rel, err := filepath.Rel(l.moduleDir, dir)
	if err != nil || rel == "." {
		return l.modulePath
	}
	return l.modulePath + "/" + filepath.ToSlash(rel)
}

// dirOf maps an import path inside the module to its directory.
func (l *loader) dirOf(path string) string {
	if path == l.modulePath {
		return l.moduleDir
	}
	return filepath.Join(l.moduleDir, filepath.FromSlash(strings.TrimPrefix(path, l.modulePath+"/")))
}

// goFilesIn lists the non-test Go files of one directory (no recursion).
func goFilesIn(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		out = append(out, filepath.Join(dir, name))
	}
	sort.Strings(out)
	return out, nil
}

// load parses and type-checks one module package (and, recursively, every
// module package it imports), caching the result.
func (l *loader) load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.dirOf(path)
	filenames, err := goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	if len(filenames) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	files := make([]*ast.File, 0, len(filenames))
	for _, fn := range filenames {
		f, err := parser.ParseFile(l.fset, fn, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return l.check(path, dir, files)
}

// check type-checks one package from its parsed files and caches it.
func (l *loader) check(path, dir string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importerFunc(l.importPkg)}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// importPkg resolves one import: module packages from source, everything
// else through the standard importer's export data.
func (l *loader) importPkg(path string) (*types.Package, error) {
	if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// LoadFixture type-checks the given source files as a package pretending to
// live at importPath inside the module rooted at moduleDir — the analyzer
// test harness: a fixture can pose as a hot-path package and import real
// module packages, which resolve against the actual repository source. The
// returned Module holds the fixture package and everything it pulled in;
// the fixture itself is returned separately as the analysis target.
func LoadFixture(moduleDir, importPath string, filenames ...string) (*Module, *Package, error) {
	abs, err := filepath.Abs(moduleDir)
	if err != nil {
		return nil, nil, err
	}
	modulePath, err := readModulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, nil, err
	}
	l := newLoader(abs, modulePath)
	files := make([]*ast.File, 0, len(filenames))
	for _, fn := range filenames {
		f, err := parser.ParseFile(l.fset, fn, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
	}
	p, err := l.check(importPath, filepath.Dir(filenames[0]), files)
	if err != nil {
		return nil, nil, err
	}
	return l.module(), p, nil
}
