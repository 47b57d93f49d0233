package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Analyzer is one pluggable rule of the suite. Run inspects a single
// type-checked package and reports findings through the Pass.
type Analyzer interface {
	// Name is the rule identifier used in output ("[name]") and in
	// //scilint:ignore directives.
	Name() string
	// Doc is a one-line description for -list.
	Doc() string
	// Run analyzes one package.
	Run(p *Pass)
}

// Pass hands one type-checked package to an analyzer.
type Pass struct {
	Fset  *token.FileSet
	Path  string // import path (module-relative packages keep the module prefix)
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	report func(pos token.Pos, rule, msg string)
	ld     *loader
}

// module returns the whole-module facts (every object a non-test file
// refers to, every interface loaded code declares or names).
func (p *Pass) module() *moduleFacts { return p.ld.moduleFacts() }

// Reportf records one finding at pos under the given rule.
func (p *Pass) Reportf(pos token.Pos, rule, format string, args ...any) {
	p.report(pos, rule, fmt.Sprintf(format, args...))
}

// Finding is one diagnostic.
type Finding struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Rule string `json:"rule"`
	Msg  string `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Rule, f.Msg)
}

// runAnalyzers loads the whole module and every target directory, then
// runs the selected analyzers over each target, returning the
// unsuppressed findings sorted by position. The whole module loads
// whatever the targets are, so an analyzer that judges a package by its
// callers (testonlyapi) sees every caller.
func runAnalyzers(ld *loader, dirs []string, selected []Analyzer) ([]Finding, error) {
	all, err := expandPatterns([]string{ld.root + "/..."})
	if err != nil {
		return nil, err
	}
	var pkgs []*pkgInfo
	for i, dir := range append(all, dirs...) {
		pi, err := ld.Load(dir)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", dir, err)
		}
		if i >= len(all) {
			pkgs = append(pkgs, pi)
		}
	}
	var findings []Finding
	for _, pi := range pkgs {
		findings = append(findings, analyzePackage(ld, pi, selected)...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
	return findings, nil
}

// analyzePackage runs the selected analyzers over one loaded package and
// filters the results through the package's //scilint:ignore directives.
func analyzePackage(ld *loader, pi *pkgInfo, selected []Analyzer) []Finding {
	ignores, malformed := collectIgnores(ld.root, ld.fset, pi.files)

	var raw []Finding
	pass := &Pass{
		Fset:  ld.fset,
		Path:  pi.importPath,
		Files: pi.files,
		Pkg:   pi.pkg,
		Info:  pi.info,
		ld:    ld,
	}
	pass.report = func(pos token.Pos, rule, msg string) {
		p := ld.fset.Position(pos)
		raw = append(raw, Finding{
			File: relPath(ld.root, p.Filename),
			Line: p.Line,
			Col:  p.Column,
			Rule: rule,
			Msg:  msg,
		})
	}
	for _, a := range selected {
		a.Run(pass)
	}

	var out []Finding
	for _, f := range raw {
		if ignores.suppresses(f) {
			continue
		}
		out = append(out, f)
	}
	return append(out, malformed...)
}

// ignoreSet maps file → line → rules suppressed on that line.
type ignoreSet map[string]map[int][]string

// suppresses reports whether a directive on the finding's line or the
// line directly above it names the finding's rule.
func (s ignoreSet) suppresses(f Finding) bool {
	lines := s[f.File]
	if lines == nil {
		return false
	}
	for _, line := range []int{f.Line, f.Line - 1} {
		for _, rule := range lines[line] {
			if rule == f.Rule {
				return true
			}
		}
	}
	return false
}

const ignoreMarker = "scilint:ignore"

// collectIgnores scans every comment for //scilint:ignore directives.
// A well-formed directive is "scilint:ignore <rule>[,<rule>] <reason>";
// a directive missing its rule or its reason is returned as a finding
// itself — silent, unexplained suppressions are exactly what the suite
// exists to prevent.
func collectIgnores(root string, fset *token.FileSet, files []*ast.File) (ignoreSet, []Finding) {
	set := ignoreSet{}
	var malformed []Finding
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimPrefix(text, "/*")
				text = strings.TrimSuffix(text, "*/")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, ignoreMarker) {
					continue
				}
				p := fset.Position(c.Pos())
				file := relPath(root, p.Filename)
				fields := strings.Fields(strings.TrimPrefix(text, ignoreMarker))
				if len(fields) < 2 {
					malformed = append(malformed, Finding{
						File: file, Line: p.Line, Col: p.Column,
						Rule: "scilint",
						Msg:  "malformed suppression: want //scilint:ignore <rule>[,<rule>] <reason>",
					})
					continue
				}
				if set[file] == nil {
					set[file] = map[int][]string{}
				}
				set[file][p.Line] = append(set[file][p.Line], strings.Split(fields[0], ",")...)
			}
		}
	}
	return set, malformed
}

// relPath renders path relative to root when possible (findings read
// better and stay stable across checkouts); ignore directive filenames
// are rewritten the same way so suppression matching lines up.
func relPath(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(path)
}

// pathHasSegment reports whether a slash-separated import path contains
// seg as a whole segment. Zone checks match on segments so the golden
// fixture trees under testdata/ land in the same zones as the real code.
func pathHasSegment(path, seg string) bool {
	for _, s := range strings.Split(path, "/") {
		if s == seg {
			return true
		}
	}
	return false
}
