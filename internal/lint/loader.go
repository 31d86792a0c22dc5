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

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// PkgPath is the import path ("lvm/internal/core"). External test
	// packages keep the base path; IsXTest distinguishes them.
	PkgPath string
	Dir     string
	IsXTest bool
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// Loader type-checks packages of this module using only the standard
// library: module-internal imports are resolved from source under the module
// root, everything else is delegated to go/importer's source importer (which
// reads GOROOT). This keeps lvmlint working with zero dependencies and no
// network.
type Loader struct {
	Fset    *token.FileSet
	modRoot string
	modPath string
	std     types.Importer
	// cache holds the import variant (non-test files only) of module
	// packages, keyed by import path.
	cache    map[string]*types.Package
	building map[string]bool
}

// NewLoader locates the module root by walking up from dir to the nearest
// go.mod.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	l := &Loader{
		Fset:     fset,
		modRoot:  root,
		modPath:  modPath,
		cache:    map[string]*types.Package{},
		building: map[string]bool{},
	}
	l.std = importer.ForCompiler(fset, "source", nil)
	return l, nil
}

// ModRoot returns the module root directory.
func (l *Loader) ModRoot() string { return l.modRoot }

// Import implements types.Importer, routing module-internal paths to the
// source tree and everything else to the standard importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		return l.importModule(path)
	}
	if from, ok := l.std.(types.ImporterFrom); ok {
		return from.ImportFrom(path, l.modRoot, 0)
	}
	return l.std.Import(path)
}

func (l *Loader) dirFor(path string) string {
	rel := strings.TrimPrefix(path, l.modPath)
	return filepath.Join(l.modRoot, filepath.FromSlash(strings.TrimPrefix(rel, "/")))
}

// importModule type-checks the import variant (no test files) of a module
// package, memoized.
func (l *Loader) importModule(path string) (*types.Package, error) {
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	if l.building[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.building[path] = true
	defer delete(l.building, path)

	files, err := l.parseDir(l.dirFor(path), goFilesOnly)
	if err != nil {
		return nil, err
	}
	pkg, _, err := l.check(path, files, nil)
	if err != nil {
		return nil, err
	}
	l.cache[path] = pkg
	return pkg, nil
}

type fileClass int

const (
	goFilesOnly    fileClass = iota // GoFiles
	withInPkgTests                  // GoFiles + TestGoFiles
	xTestsOnly                      // XTestGoFiles
)

// parseDir parses the requested class of files in dir, honoring build tags
// via go/build.
func (l *Loader) parseDir(dir string, class fileClass) ([]*ast.File, error) {
	ctx := build.Default
	ctx.Dir = l.modRoot
	bp, err := ctx.ImportDir(dir, 0)
	if err != nil {
		// NoGoError still carries the test-file lists; anything else is real.
		if _, nogo := err.(*build.NoGoError); !nogo {
			return nil, err
		}
		if bp == nil {
			bp = &build.Package{Dir: dir}
		}
	}
	var names []string
	switch class {
	case goFilesOnly:
		names = bp.GoFiles
	case withInPkgTests:
		names = append(append([]string{}, bp.GoFiles...), bp.TestGoFiles...)
	case xTestsOnly:
		names = bp.XTestGoFiles
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// check type-checks files as package path, returning the types.Package and
// filled Info.
func (l *Loader) check(path string, files []*ast.File, info *types.Info) (*types.Package, *types.Info, error) {
	if info == nil {
		info = newInfo()
	}
	var errs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { errs = append(errs, err) },
	}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if len(errs) > 0 {
		return nil, nil, fmt.Errorf("lint: type errors in %s: %v", path, errs[0])
	}
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// LoadDir loads the package rooted at dir for analysis, under import path
// asPath (which analyzers use for scoping). It returns the package including
// in-package test files, plus — when present — the external test package.
func (l *Loader) LoadDir(dir, asPath string) ([]*Package, error) {
	var out []*Package
	files, err := l.parseDir(dir, withInPkgTests)
	if err != nil {
		return nil, err
	}
	if len(files) > 0 {
		pkg, info, err := l.check(asPath, files, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, &Package{
			PkgPath: StripVariant(asPath), Dir: dir,
			Fset: l.Fset, Files: files, Types: pkg, Info: info,
		})
	}
	xfiles, err := l.parseDir(dir, xTestsOnly)
	if err != nil {
		return nil, err
	}
	if len(xfiles) > 0 {
		pkg, info, err := l.check(asPath+"_test", xfiles, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, &Package{
			PkgPath: StripVariant(asPath), Dir: dir, IsXTest: true,
			Fset: l.Fset, Files: xfiles, Types: pkg, Info: info,
		})
	}
	return out, nil
}

// LoadAll loads every package in the module (skipping testdata, hidden
// directories, and .github).
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.modRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.modRoot && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	var out []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.modRoot, dir)
		if err != nil {
			return nil, err
		}
		path := l.modPath
		if rel != "." {
			path = l.modPath + "/" + filepath.ToSlash(rel)
		}
		pkgs, err := l.LoadDir(dir, path)
		if err != nil {
			if strings.Contains(err.Error(), "no buildable Go source files") {
				continue
			}
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, pkgs...)
	}
	return out, nil
}

// Load resolves command-line patterns: "./..." (or "all") loads the whole
// module; "./x/y" and "x/y" load single directories.
func (l *Loader) Load(patterns []string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var out []*Package
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "all" || pat == l.modPath+"/...":
			pkgs, err := l.LoadAll()
			if err != nil {
				return nil, err
			}
			out = append(out, pkgs...)
		default:
			dir := pat
			if strings.HasPrefix(pat, l.modPath) {
				dir = l.dirFor(pat)
			} else if !filepath.IsAbs(pat) {
				dir = filepath.Join(l.modRoot, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
			}
			rel, err := filepath.Rel(l.modRoot, dir)
			if err != nil {
				return nil, err
			}
			path := l.modPath
			if rel != "." {
				path = l.modPath + "/" + filepath.ToSlash(rel)
			}
			pkgs, err := l.LoadDir(dir, path)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", pat, err)
			}
			out = append(out, pkgs...)
		}
	}
	return out, nil
}
