package vet

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

// Loader parses and type-checks packages of one module (plus optional
// extra source roots for self-test corpora) without go/packages: the
// module's own packages resolve by path under the module root, corpus
// packages resolve under the extra roots, and everything else falls
// back to the stdlib source importer. One Loader shares a FileSet and
// a package cache, so a type (guard.Governor, table.Store) resolved
// through any import chain is pointer-identical everywhere — which is
// what lets rules compare types.Object identities across packages.
type Loader struct {
	Fset *token.FileSet

	root    string // module root directory (absolute)
	module  string // module path from go.mod
	extras  []string
	std     types.ImporterFrom
	pkgs    map[string]*Package // by import path
	loading map[string]bool     // import-cycle detector
	adhoc   map[string]string   // out-of-module target dir → synthetic import path
}

// NewLoader builds a loader for the module rooted at root. extraRoots
// are corpus directories whose subdirectories are importable by their
// path relative to the root (GOPATH-style), used by the self-tests.
func NewLoader(root string, extraRoots ...string) (*Loader, error) {
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	module, err := modulePath(filepath.Join(absRoot, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &Loader{
		Fset:    fset,
		root:    absRoot,
		module:  module,
		extras:  extraRoots,
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
		adhoc:   map[string]string{},
	}
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("source importer does not implement ImporterFrom")
	}
	l.std = std
	return l, nil
}

// Module returns the module path from go.mod.
func (l *Loader) Module() string { return l.module }

// Local reports whether tp was loaded from the module or a corpus root
// (as opposed to the stdlib source importer).
func (l *Loader) Local(tp *types.Package) bool {
	if tp == nil {
		return false
	}
	pkg, ok := l.pkgs[tp.Path()]
	return ok && pkg.Types == tp
}

// Root returns the absolute module root directory.
func (l *Loader) Root() string { return l.root }

// modulePath reads the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module declaration", gomod)
}

// LoadDir loads the package in dir (relative dirs resolve against the
// module root) and returns it type-checked.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs := dir
	if !filepath.IsAbs(abs) {
		abs = filepath.Join(l.root, dir)
	}
	path, err := l.importPathFor(abs)
	if err != nil {
		return nil, err
	}
	return l.load(path, abs)
}

// importPathFor maps a directory to its import path: module-relative
// for directories under the root, extra-root-relative for corpus dirs.
func (l *Loader) importPathFor(abs string) (string, error) {
	for _, extra := range l.extras {
		if rel, err := filepath.Rel(extra, abs); err == nil && rel != ".." && !strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
			return filepath.ToSlash(rel), nil
		}
	}
	rel, err := filepath.Rel(l.root, abs)
	if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		// A target outside the module and every corpus root (a directory
		// named on the command line) gets a synthetic import path; its
		// own imports still resolve through the loader.
		if path, ok := l.adhoc[abs]; ok {
			return path, nil
		}
		path := fmt.Sprintf("vetcert.target/%d/%s", len(l.adhoc), filepath.Base(abs))
		l.adhoc[abs] = path
		return path, nil
	}
	if rel == "." {
		return l.module, nil
	}
	return l.module + "/" + filepath.ToSlash(rel), nil
}

// dirFor maps an import path back to a source directory: the module
// root for module-local paths, an extra root otherwise ("" when the
// path belongs to neither — i.e. the stdlib).
func (l *Loader) dirFor(path string) string {
	if path == l.module {
		return l.root
	}
	if rest, ok := strings.CutPrefix(path, l.module+"/"); ok {
		return filepath.Join(l.root, filepath.FromSlash(rest))
	}
	for _, extra := range l.extras {
		dir := filepath.Join(extra, filepath.FromSlash(path))
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return dir
		}
	}
	return ""
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.root, 0)
}

// ImportFrom implements types.ImporterFrom: local paths load through
// the loader, everything else through the stdlib source importer.
func (l *Loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if dir := l.dirFor(path); dir != "" {
		pkg, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, l.root, 0)
}

// load parses and type-checks one local package, caching by path.
func (l *Loader) load(path, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	files, err := parsePackageDir(l.Fset, dir)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %v", path, typeErrs[0])
	}
	pkg := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

// parsePackageDir parses every non-test .go file in dir, in name order
// for deterministic positions and diagnostics.
func parsePackageDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("%s: no Go files", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// DiscoverTargets walks the module graph for lint targets: the root
// package itself plus every package under the given subtrees (by
// default internal/... and cmd/...), so a new package — the upcoming
// storage backend, say — is linted the day it appears rather than when
// someone remembers to extend a hard-coded list. Directories named
// testdata, hidden directories, and anything matching an exclude
// prefix are skipped.
func DiscoverTargets(root string, subtrees []string, excludes []string) ([]string, error) {
	if len(subtrees) == 0 {
		subtrees = []string{"internal", "cmd"}
	}
	excluded := func(rel string) bool {
		for _, ex := range excludes {
			ex = strings.TrimSuffix(filepath.ToSlash(strings.TrimSpace(ex)), "/")
			if ex == "" {
				continue
			}
			slash := filepath.ToSlash(rel)
			if slash == ex || strings.HasPrefix(slash, ex+"/") {
				return true
			}
		}
		return false
	}
	var targets []string
	addIfPackage := func(rel string) error {
		dir := filepath.Join(root, rel)
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				targets = append(targets, rel)
				return nil
			}
		}
		return nil
	}
	if !excluded(".") {
		if err := addIfPackage("."); err != nil {
			return nil, err
		}
	}
	for _, sub := range subtrees {
		base := filepath.Join(root, sub)
		if _, err := os.Stat(base); os.IsNotExist(err) {
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if name == "testdata" || (strings.HasPrefix(name, ".") && path != base) {
				return filepath.SkipDir
			}
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			if excluded(rel) {
				return filepath.SkipDir
			}
			return addIfPackage(rel)
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(targets)
	return targets, nil
}
