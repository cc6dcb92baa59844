package lint

import (
	"fmt"
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
)

// Package is one type-checked, in-module package ready for analysis.
// Test files are not loaded: every rule in the suite exempts tests, and
// leaving them out keeps the loader free of external-test-package
// complications.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// Loader type-checks every package of one module using nothing but the
// standard library: in-module imports are resolved recursively by the
// loader itself, and standard-library imports go through the "source"
// importer (which compiles from source, so no pre-built export data is
// needed).
type Loader struct {
	ModRoot string
	ModPath string

	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*Package
	// checking guards against import cycles, which the loader reports
	// instead of recursing forever (the compiler rejects them anyway,
	// but the loader may see broken trees).
	checking map[string]bool
}

// NewLoader returns a loader for the module rooted at modRoot. The
// module path is read from go.mod.
func NewLoader(modRoot string) (*Loader, error) {
	modPath, err := readModulePath(filepath.Join(modRoot, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		ModRoot:  modRoot,
		ModPath:  modPath,
		fset:     fset,
		std:      importer.ForCompiler(fset, "source", nil),
		pkgs:     make(map[string]*Package),
		checking: make(map[string]bool),
	}, nil
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", fmt.Errorf("lint: reading %s: %w", path, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			mod := strings.TrimSpace(rest)
			if mod != "" {
				return strings.Trim(mod, `"`), nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", path)
}

// LoadModule walks the module tree, type-checks every package that has
// at least one non-test Go file, and returns them sorted by import path.
func (l *Loader) LoadModule() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.ModRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.ModRoot && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.ModRoot, dir)
		if err != nil {
			return nil, err
		}
		ip := l.ModPath
		if rel != "." {
			ip = l.ModPath + "/" + filepath.ToSlash(rel)
		}
		p, err := l.load(ip, dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// Import implements types.Importer: module-local paths are loaded (and
// cached) by the loader, everything else is delegated to the source
// importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")
		p, err := l.load(path, filepath.Join(l.ModRoot, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// load parses and type-checks the package in dir under import path ip.
func (l *Loader) load(ip, dir string) (*Package, error) {
	if p, ok := l.pkgs[ip]; ok {
		return p, nil
	}
	if l.checking[ip] {
		return nil, fmt.Errorf("lint: import cycle through %s", ip)
	}
	l.checking[ip] = true
	defer delete(l.checking, ip)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", ip, err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		// Only the files this GOOS/GOARCH compiles, as go build and go vet
		// see the package: a per-architecture file and its fallback
		// declare the same names.
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, fmt.Errorf("lint: %s: %w", ip, err)
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %w", ip, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: %s: no Go files in %s", ip, dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(ip, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", ip, err)
	}
	p := &Package{
		ImportPath: ip,
		Dir:        dir,
		Fset:       l.fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}
	l.pkgs[ip] = p
	return p, nil
}
