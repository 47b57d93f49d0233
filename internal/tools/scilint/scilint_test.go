package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The loader is shared across tests: stdlib packages type-check from
// GOROOT source exactly once per `go test` run.
var shared struct {
	once sync.Once
	root string
	ld   *loader
	err  error
}

func sharedLoader(t *testing.T) (*loader, string) {
	t.Helper()
	shared.once.Do(func() {
		root, err := filepath.Abs(filepath.Join("..", "..", ".."))
		if err != nil {
			shared.err = err
			return
		}
		module, err := moduleName(filepath.Join(root, "go.mod"))
		if err != nil {
			shared.err = fmt.Errorf("locating repo root: %w", err)
			return
		}
		shared.root = root
		shared.ld = newLoader(root, module)
	})
	if shared.err != nil {
		t.Fatal(shared.err)
	}
	return shared.ld, shared.root
}

// want is one expected diagnostic parsed from a fixture comment of the
// form: // want <rule> "message substring"
type want struct {
	file string
	line int
	rule string
	sub  string
}

var wantRe = regexp.MustCompile(`// want ([a-z]+) "([^"]+)"`)

func parseWants(t *testing.T, root string, dirs []string) []want {
	t.Helper()
	var wants []want
	for _, dir := range dirs {
		names, err := goSources(filepath.Join(root, dir))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			path := filepath.Join(root, dir, name)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			rel := filepath.ToSlash(filepath.Join(dir, name))
			for i, line := range strings.Split(string(data), "\n") {
				for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
					wants = append(wants, want{file: rel, line: i + 1, rule: m[1], sub: m[2]})
				}
			}
		}
	}
	return wants
}

// checkFixture runs the full analyzer suite over the fixture dirs
// (repo-root relative) and asserts the findings match the want comments
// line by line, in both directions.
func checkFixture(t *testing.T, dirs ...string) {
	t.Helper()
	ld, root := sharedLoader(t)
	findings, err := runAnalyzers(ld, dirs, registry)
	if err != nil {
		t.Fatal(err)
	}
	wants := parseWants(t, root, dirs)
	if len(wants) == 0 {
		t.Fatalf("fixture %v declares no // want comments", dirs)
	}

	matched := make([]bool, len(findings))
	for _, w := range wants {
		found := false
		for i, f := range findings {
			if !matched[i] && f.File == w.file && f.Line == w.line && f.Rule == w.rule && strings.Contains(f.Msg, w.sub) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing finding: %s:%d: [%s] ...%s...", w.file, w.line, w.rule, w.sub)
		}
	}
	for i, f := range findings {
		if !matched[i] {
			t.Errorf("unexpected finding: %s", f)
		}
	}
}

const fixtures = "internal/tools/scilint/testdata/src"

func TestVFSDisciplineGolden(t *testing.T) {
	checkFixture(t, fixtures+"/vfsdiscipline/rdbms")
}

func TestVFSDisciplineExemptsVFSPackage(t *testing.T) {
	ld, _ := sharedLoader(t)
	findings, err := runAnalyzers(ld, []string{fixtures + "/vfsdiscipline/rdbms/vfs"}, registry)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("vfs package must be exempt, got: %s", f)
	}
}

func TestDurErrCheckGolden(t *testing.T) {
	checkFixture(t, fixtures+"/durerrcheck")
}

func TestLockHygieneGolden(t *testing.T) {
	checkFixture(t, fixtures+"/lockhygiene")
}

func TestDeterminismGolden(t *testing.T) {
	checkFixture(t, fixtures+"/determinism/mlcore")
}

// TestDeterminismStreamZone pins the stream zone added for the adaptive
// ingestion controller: wall clocks and global rand are banned there
// too, the injected-clock and seeded-jitter patterns pass, and the
// scilint:ignore idiom used for the production-default clock suppresses
// its finding.
func TestDeterminismStreamZone(t *testing.T) {
	checkFixture(t, fixtures+"/determinism/stream")
}

func TestHTTPBodyGolden(t *testing.T) {
	checkFixture(t, fixtures+"/httpbody/api")
}

// TestUnsafeConfineGolden pins the unsafe allow-list to one file: value.go
// under internal/rdbms passes, a sibling file and a value.go elsewhere are
// flagged.
func TestUnsafeConfineGolden(t *testing.T) {
	checkFixture(t, fixtures+"/unsafeconfine/internal/rdbms", fixtures+"/unsafeconfine/other")
}

// TestRepoIsLintClean is the self-clean gate: the full suite over the
// whole repository must report nothing. CI also runs this as a separate
// `go run ./internal/tools/scilint ./...` step; the test keeps `go test
// ./...` self-contained.
func TestRepoIsLintClean(t *testing.T) {
	ld, root := sharedLoader(t)
	dirs, err := expandPatterns([]string{root + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) < 20 {
		t.Fatalf("expected to discover the whole repo, got %d package dirs", len(dirs))
	}
	findings, err := runAnalyzers(ld, dirs, registry)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("repo not lint-clean: %s", f)
	}
	for _, w := range ld.Warnings {
		t.Errorf("loader warning (incomplete type info weakens every analyzer): %s", w)
	}
}

// TestSuppression covers the //scilint:ignore machinery directly:
// same-line and line-above placement, rule lists, and the malformed
// (reason-less) form being reported as a finding of its own.
func TestSuppression(t *testing.T) {
	src := `package p

func f() {
	g() //scilint:ignore mockrule proven harmless in TestSuppression
	//scilint:ignore mockrule,otherrule covers the next line
	g()
	//scilint:ignore mockrule
	g()
}

func g() {}
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	ignores, malformed := collectIgnores("", fset, []*ast.File{file})
	if len(malformed) != 1 || !strings.Contains(malformed[0].Msg, "malformed suppression") {
		t.Fatalf("want exactly one malformed-suppression finding, got %v", malformed)
	}
	cases := []struct {
		line int
		rule string
		want bool
	}{
		{4, "mockrule", true},   // same line
		{6, "mockrule", true},   // line above
		{6, "otherrule", true},  // second rule of a list
		{6, "mockrule2", false}, // unlisted rule
		{8, "mockrule", false},  // malformed directive suppresses nothing
	}
	for _, c := range cases {
		got := ignores.suppresses(Finding{File: "p.go", Line: c.line, Rule: c.rule})
		if got != c.want {
			t.Errorf("line %d rule %s: suppressed=%v, want %v", c.line, c.rule, got, c.want)
		}
	}
}
