package lint

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

// Package is one type-checked, non-test package of the module.
type Package struct {
	// Path is the package's import path.
	Path string
	// Dir is the package's directory on disk.
	Dir string
	// Fset is the file set shared by every package of a load.
	Fset *token.FileSet
	// Files are the parsed non-test source files, sorted by name.
	Files []*ast.File
	// TPkg is the type-checked package.
	TPkg *types.Package
	// Info holds the type-checker's expression and identifier facts.
	Info *types.Info
	// loader is the Loader that produced the package; nil for a package
	// type-checked outside one (a single-file test fixture).
	loader *Loader
}

// Loader parses and type-checks module packages using only the standard
// library: module-internal imports are resolved against the source tree and
// everything else is delegated to the go/importer source importer, so the
// tool needs no dependencies beyond the Go installation itself.
type Loader struct {
	fset       *token.FileSet
	moduleDir  string
	modulePath string
	pkgs       map[string]*Package
	loading    map[string]bool
	std        types.Importer
	uses       *useIndex // module-wide use index, built on first request
}

// NewLoader locates the module containing dir and prepares a loader for it.
func NewLoader(dir string) (*Loader, error) {
	moduleDir, err := findModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	modulePath, err := readModulePath(filepath.Join(moduleDir, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		fset:       fset,
		moduleDir:  moduleDir,
		modulePath: modulePath,
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
		std:        importer.ForCompiler(fset, "source", nil),
	}, nil
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", path)
}

// inModule reports whether the import path belongs to the loader's module.
func (l *Loader) inModule(path string) bool {
	return path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/")
}

// dirFor maps a module-internal import path to its directory.
func (l *Loader) dirFor(path string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modulePath), "/")
	return filepath.Join(l.moduleDir, filepath.FromSlash(rel))
}

// importPathFor maps a directory inside the module to its import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.moduleDir, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, l.moduleDir)
	}
	if rel == "." {
		return l.modulePath, nil
	}
	return l.modulePath + "/" + filepath.ToSlash(rel), nil
}

// Import implements types.Importer: module-internal paths are loaded from
// source, everything else comes from the standard-library source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if !l.inModule(path) {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.TPkg, nil
}

// goFilesIn lists the non-test .go files of dir that a default `go build`
// on the host platform would compile (see fileConstraintSatisfied), sorted
// by name.
func goFilesIn(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		if !fileConstraintSatisfied(dir, name) {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// load parses and type-checks one module-internal package (memoized).
func (l *Loader) load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.dirFor(path)
	names, err := goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no non-test Go files in %s", dir)
	}
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := newInfo()
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, TPkg: tpkg, Info: info, loader: l}
	l.pkgs[path] = p
	return p, nil
}

// walkPackageDirs calls visit for every directory under root (root
// included) that holds non-test Go files, skipping directories named
// testdata or vendor and hidden or _-prefixed ones.
func walkPackageDirs(root string, visit func(dir string) error) error {
	return filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		names, err := goFilesIn(p)
		if err != nil || len(names) == 0 {
			return nil
		}
		return visit(p)
	})
}

// loadModule loads every package under the module root (memoized per
// package, so packages a run already loaded are reused).
func (l *Loader) loadModule() ([]*Package, error) {
	var pkgs []*Package
	err := walkPackageDirs(l.moduleDir, func(dir string) error {
		path, err := l.importPathFor(dir)
		if err != nil {
			return err
		}
		p, err := l.load(path)
		if err != nil {
			return err
		}
		pkgs = append(pkgs, p)
		return nil
	})
	return pkgs, err
}

// newInfo allocates the types.Info maps the analyzers rely on.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
}

// LoadPackages loads the packages matched by go-style patterns (a directory
// like ./cmd/wlanlint, or a recursive pattern like ./...), resolved relative
// to dir. Directories named testdata or vendor and hidden directories are
// skipped, as are directories with no non-test Go files.
func LoadPackages(dir string, patterns []string) ([]*Package, error) {
	type target struct {
		root      string
		recursive bool
	}
	targets := make([]target, 0, len(patterns))
	for _, pat := range patterns {
		base, recursive := strings.CutSuffix(pat, "...")
		base = strings.TrimSuffix(base, "/")
		if base == "" {
			base = "."
		}
		root := base
		if !filepath.IsAbs(root) {
			root = filepath.Join(dir, base)
		}
		targets = append(targets, target{root: root, recursive: recursive})
	}
	// Anchor the module at the first pattern so absolute patterns into
	// another module work; every pattern must stay inside that module.
	anchor := dir
	if len(targets) > 0 {
		anchor = targets[0].root
	}
	l, err := NewLoader(anchor)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var paths []string
	add := func(d string) error {
		path, err := l.importPathFor(d)
		if err != nil {
			return err
		}
		if !seen[path] {
			seen[path] = true
			paths = append(paths, path)
		}
		return nil
	}
	for _, tg := range targets {
		root := tg.root
		if !tg.recursive {
			if err := add(root); err != nil {
				return nil, err
			}
			continue
		}
		if err := walkPackageDirs(root, add); err != nil {
			return nil, err
		}
	}
	sort.Strings(paths)
	pkgs := make([]*Package, 0, len(paths))
	for _, path := range paths {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}
