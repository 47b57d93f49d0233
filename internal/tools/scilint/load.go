package main

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
	"regexp"
	"sort"
	"strings"
)

// loader parses and type-checks packages. Module-internal import paths
// resolve against the repository tree (so packages under testdata/ —
// which the go tool refuses to build — still load for the golden tests);
// everything else goes through the stdlib source importer. All packages
// share one FileSet and one cache, so repeated loads are free.
type loader struct {
	fset    *token.FileSet
	root    string // absolute repository root
	module  string // module path from go.mod
	std     types.ImporterFrom
	pkgs    map[string]*pkgInfo
	loading map[string]bool

	// facts memoises moduleFacts over the factsPkgs packages it was
	// built from.
	facts     *moduleFacts
	factsPkgs int

	// Warnings collects non-fatal type-check diagnostics. The repo must
	// compile (tier-1 gate) so these indicate a loader limitation, not a
	// code problem; analyzers run on whatever type info exists.
	Warnings []string
}

type pkgInfo struct {
	importPath string
	dir        string
	files      []*ast.File
	pkg        *types.Package
	info       *types.Info
}

func newLoader(root, module string) *loader {
	// The source importer type-checks stdlib packages from GOROOT source.
	// With cgo enabled it would hit preprocessed cgo files in net/os/user;
	// disabling it selects the pure-Go fallbacks, which is all the type
	// information the analyzers need.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	l := &loader{
		fset:    fset,
		root:    root,
		module:  module,
		pkgs:    map[string]*pkgInfo{},
		loading: map[string]bool{},
	}
	l.std = importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	return l
}

// Load parses and type-checks the package in dir (relative to the repo
// root or absolute). Test files are excluded: the invariants govern
// production code, and tests legitimately use os, wall clocks and
// unchecked Closes.
func (l *loader) Load(dir string) (*pkgInfo, error) {
	abs := dir
	if !filepath.IsAbs(abs) {
		abs = filepath.Join(l.root, dir)
	}
	ip := l.dirToImportPath(abs)
	if pi, ok := l.pkgs[ip]; ok {
		return pi, nil
	}
	if l.loading[ip] {
		return nil, fmt.Errorf("import cycle through %s", ip)
	}
	l.loading[ip] = true
	defer delete(l.loading, ip)

	names, err := goSources(abs)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no non-test Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(abs, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Importer:    l,
		FakeImportC: true,
		Error: func(err error) {
			l.Warnings = append(l.Warnings, err.Error())
		},
	}
	pkg, _ := conf.Check(ip, l.fset, files, info)
	pi := &pkgInfo{importPath: ip, dir: abs, files: files, pkg: pkg, info: info}
	l.pkgs[ip] = pi
	return pi, nil
}

// Import and ImportFrom make the loader a types.Importer for its own
// type-checks: module paths load locally, the rest from GOROOT source.
func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		pi, err := l.Load(l.importPathToDir(path))
		if err != nil {
			return nil, err
		}
		return pi.pkg, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

func (l *loader) dirToImportPath(abs string) string {
	rel, err := filepath.Rel(l.root, abs)
	if err != nil || rel == "." {
		return l.module
	}
	return l.module + "/" + filepath.ToSlash(rel)
}

func (l *loader) importPathToDir(path string) string {
	if path == l.module {
		return l.root
	}
	return filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.module+"/")))
}

// goSources lists the non-test .go files of dir in deterministic order.
func goSources(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// expandPatterns resolves "dir/..." walk patterns and plain directories
// into the sorted list of package directories to analyze. Like the go
// tool, the walk skips testdata, vendor and dot/underscore directories —
// that is what keeps the deliberately-violating golden fixtures out of
// the repo's own run.
func expandPatterns(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		dir = filepath.Clean(dir)
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		base, recursive := strings.CutSuffix(pat, "...")
		if !recursive {
			ok, err := hasGoSources(pat)
			if err != nil {
				return nil, err
			}
			if !ok {
				return nil, fmt.Errorf("%s: no non-test Go files", pat)
			}
			add(pat)
			continue
		}
		base = strings.TrimSuffix(base, "/")
		if base == "" {
			base = "."
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			ok, err := hasGoSources(path)
			if err != nil {
				return err
			}
			if ok {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoSources(dir string) (bool, error) {
	names, err := goSources(dir)
	if err != nil {
		return false, err
	}
	return len(names) > 0, nil
}

var moduleRe = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// moduleName extracts the module path from a go.mod file.
func moduleName(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	m := moduleRe.FindSubmatch(data)
	if m == nil {
		return "", fmt.Errorf("%s: no module directive", gomod)
	}
	return string(m[1]), nil
}
