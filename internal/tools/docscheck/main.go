// Command docscheck is the CI docs-consistency gate. It fails when
//
//  1. an HTTP route registered in internal/api (a `mux.HandleFunc("METHOD
//     /api/...")` call) is not documented in docs/API.md, or a
//     `| `METHOD /api/...` |` row of docs/API.md's route table names a
//     route internal/api does not register, or
//  2. a relative markdown link in docs/ (or a root markdown file) points
//     at a file that does not exist, or
//  3. a command-line flag registered by cmd/scilens-server is missing
//     from the docs/OPERATIONS.md flag tables, or a flag-table row of
//     docs/OPERATIONS.md names a flag cmd/scilens-server does not
//     register, or
//  4. the docs/OPERATIONS.md "Binaries" table does not list exactly the
//     command directories under cmd/, or
//  5. a metric family registered on an obs.Registry anywhere under
//     internal/ is missing from docs/OBSERVABILITY.md.
//
// Run from the repository root:
//
//	go run ./internal/tools/docscheck
//
// The tool is deliberately dumb — a regexp over the registration strings
// and the link targets — so it cannot drift from the code the way a
// hand-maintained route list would.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
)

// routeRe matches mux registrations like:
//
//	s.mux.HandleFunc("GET /api/assess", ...)
var routeRe = regexp.MustCompile(`HandleFunc\("(GET|POST|PUT|DELETE|PATCH) (/api/[^"]*)"`)

// tableRouteRe matches a docs/API.md route-table row like:
//
//	| `GET /api/assess` | assessment of a stored article |
var tableRouteRe = regexp.MustCompile("(?m)^\\| `((?:GET|POST|PUT|DELETE|PATCH) /api/[^`]*)` \\|")

// linkRe matches inline markdown links [text](target).
var linkRe = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// flagRe matches stdlib flag registrations like flag.String("addr", ...).
var flagRe = regexp.MustCompile(`flag\.(?:String|Bool|Int|Int64|Uint|Uint64|Float64|Duration)\("([^"]+)"`)

// flagRowRe matches the first cell of a docs/OPERATIONS.md flag-table row
// like
//
//	| `-seed` / `-days` | — | synthetic world shape |
var flagRowRe = regexp.MustCompile("(?m)^\\| (`-[^|]*)\\|")

// docFlagRe matches one backticked `-flag` inside a flag-table cell.
var docFlagRe = regexp.MustCompile("`-([a-z0-9-]+)`")

// binaryRowRe matches a row of the docs/OPERATIONS.md "Binaries" table
// like
//
//	| `scilens-server` | full platform + Indicators API over HTTP |
var binaryRowRe = regexp.MustCompile("(?m)^\\| `([^`]+)` \\|")

// metricRe matches metric-family registrations on an obs.Registry like
// reg.NewCounter("scilens_..._total", ...), the name on the call's own
// line. TestMetricFamiliesMatchRegistry pins that this finds exactly the
// families a built platform's /metrics renders.
var metricRe = regexp.MustCompile(`\bNew(?:CounterVec|Counter|GaugeFunc|Gauge|DurationHistogramVec|DurationHistogram|SizeHistogramVec|SizeHistogram)\("([a-z0-9_]+)"`)

func main() {
	var problems []string

	routes, err := collectRoutes("internal/api")
	if err != nil {
		fatal(err)
	}
	if len(routes) == 0 {
		fatal(fmt.Errorf("no /api routes found under internal/api — is docscheck running from the repo root?"))
	}
	apiDoc, err := os.ReadFile(filepath.Join("docs", "API.md"))
	if err != nil {
		fatal(fmt.Errorf("docs/API.md: %w", err))
	}
	registered := map[string]bool{}
	for _, route := range routes {
		registered[route] = true
		if !strings.Contains(string(apiDoc), route) {
			problems = append(problems, fmt.Sprintf("route %q registered in internal/api but absent from docs/API.md", route))
		}
	}
	for _, m := range tableRouteRe.FindAllStringSubmatch(string(apiDoc), -1) {
		if !registered[m[1]] {
			problems = append(problems, fmt.Sprintf("route %q in the docs/API.md route table but not registered in internal/api", m[1]))
		}
	}

	flags, err := collectFlags("cmd/scilens-server")
	if err != nil {
		fatal(err)
	}
	if len(flags) == 0 {
		fatal(fmt.Errorf("no flag registrations found under cmd/scilens-server — is docscheck running from the repo root?"))
	}
	opsDoc, err := os.ReadFile(filepath.Join("docs", "OPERATIONS.md"))
	if err != nil {
		fatal(fmt.Errorf("docs/OPERATIONS.md: %w", err))
	}
	problems = append(problems, checkFlags(flags, string(opsDoc))...)

	cmds, err := collectCommands("cmd")
	if err != nil {
		fatal(err)
	}
	problems = append(problems, checkBinaries(cmds, string(opsDoc))...)

	metrics, err := collectMetrics("internal")
	if err != nil {
		fatal(err)
	}
	if len(metrics) == 0 {
		fatal(fmt.Errorf("no metric registrations found under internal/ — is docscheck running from the repo root?"))
	}
	obsDoc, err := os.ReadFile(filepath.Join("docs", "OBSERVABILITY.md"))
	if err != nil {
		fatal(fmt.Errorf("docs/OBSERVABILITY.md: %w", err))
	}
	for _, m := range metrics {
		// Metric families appear in OBSERVABILITY.md backticked.
		if !strings.Contains(string(obsDoc), "`"+m+"`") {
			problems = append(problems, fmt.Sprintf("metric %s registered under internal/ but absent from docs/OBSERVABILITY.md", m))
		}
	}

	mds, err := markdownFiles()
	if err != nil {
		fatal(err)
	}
	for _, md := range mds {
		broken, err := checkLinks(md)
		if err != nil {
			fatal(err)
		}
		problems = append(problems, broken...)
	}

	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "docscheck:", p)
		}
		os.Exit(1)
	}
	fmt.Printf("docscheck: %d routes documented, %d flags documented, %d binaries documented, %d metrics documented, %d markdown files link-checked\n", len(routes), len(flags), len(cmds), len(metrics), len(mds))
}

// collectRoutes scans the package's Go sources for route registrations.
func collectRoutes(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	set := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		for _, m := range routeRe.FindAllStringSubmatch(string(src), -1) {
			set[m[1]+" "+m[2]] = true
		}
	}
	routes := make([]string, 0, len(set))
	for r := range set {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	return routes, nil
}

// collectFlags scans the command directory's Go sources for stdlib flag
// registrations and returns the sorted flag names.
func collectFlags(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	set := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		for _, m := range flagRe.FindAllStringSubmatch(string(src), -1) {
			set[m[1]] = true
		}
	}
	flags := make([]string, 0, len(set))
	for f := range set {
		flags = append(flags, f)
	}
	sort.Strings(flags)
	return flags, nil
}

// checkFlags checks both directions between the registered flags and the
// docs/OPERATIONS.md flag tables: every flag appears in the doc as a
// backticked `-name`, and every backticked `-name` in a flag-table row's
// first cell is registered.
func checkFlags(flags []string, opsDoc string) []string {
	var problems []string
	registered := map[string]bool{}
	for _, f := range flags {
		registered[f] = true
		if !strings.Contains(opsDoc, "`-"+f+"`") {
			problems = append(problems, fmt.Sprintf("flag -%s registered in cmd/scilens-server but absent from the docs/OPERATIONS.md flag tables", f))
		}
	}
	for _, row := range flagRowRe.FindAllStringSubmatch(opsDoc, -1) {
		for _, m := range docFlagRe.FindAllStringSubmatch(row[1], -1) {
			if !registered[m[1]] {
				problems = append(problems, fmt.Sprintf("flag -%s in a docs/OPERATIONS.md flag-table row but not registered in cmd/scilens-server", m[1]))
			}
		}
	}
	return problems
}

// collectCommands lists the command directories under dir, sorted.
func collectCommands(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var cmds []string
	for _, e := range entries {
		if e.IsDir() {
			cmds = append(cmds, e.Name())
		}
	}
	return cmds, nil
}

// checkBinaries checks both directions between the command directories
// and the rows of the docs/OPERATIONS.md "Binaries" table, the section
// from its heading to the next one: every command has a row, and every
// row names a command.
func checkBinaries(cmds []string, opsDoc string) []string {
	const heading = "\n## Binaries\n"
	start := strings.Index(opsDoc, heading)
	if start < 0 {
		return []string{"docs/OPERATIONS.md has no \"## Binaries\" section"}
	}
	table := opsDoc[start+len(heading):]
	if end := strings.Index(table, "\n## "); end >= 0 {
		table = table[:end]
	}
	documented := map[string]bool{}
	var problems []string
	for _, m := range binaryRowRe.FindAllStringSubmatch(table, -1) {
		documented[m[1]] = true
		if !slices.Contains(cmds, m[1]) {
			problems = append(problems, fmt.Sprintf("binary %s in the docs/OPERATIONS.md Binaries table but no cmd/%s directory", m[1], m[1]))
		}
	}
	for _, c := range cmds {
		if !documented[c] {
			problems = append(problems, fmt.Sprintf("command cmd/%s absent from the docs/OPERATIONS.md Binaries table", c))
		}
	}
	return problems
}

// collectMetrics walks the internal tree for obs metric registrations,
// skipping tests (throwaway registries) and internal/tools (fixtures).
func collectMetrics(root string) ([]string, error) {
	set := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == filepath.Join(root, "tools") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range metricRe.FindAllStringSubmatch(string(src), -1) {
			set[m[1]] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	metrics := make([]string, 0, len(set))
	for m := range set {
		metrics = append(metrics, m)
	}
	sort.Strings(metrics)
	return metrics, nil
}

// markdownFiles lists docs/*.md plus the root-level markdown files.
func markdownFiles() ([]string, error) {
	files, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		return nil, err
	}
	root, err := filepath.Glob("*.md")
	if err != nil {
		return nil, err
	}
	return append(files, root...), nil
}

// checkLinks verifies every relative link target in one markdown file
// resolves to an existing file or directory. External links (scheme://),
// pure anchors (#...) and mailto: are skipped; a #fragment on a relative
// target is stripped before the existence check.
func checkLinks(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var broken []string
	for _, m := range linkRe.FindAllStringSubmatch(string(data), -1) {
		target := m[1]
		if strings.Contains(target, "://") || strings.HasPrefix(target, "#") || strings.HasPrefix(target, "mailto:") {
			continue
		}
		if i := strings.IndexByte(target, '#'); i >= 0 {
			target = target[:i]
		}
		if target == "" {
			continue
		}
		resolved := filepath.Join(filepath.Dir(path), target)
		if _, err := os.Stat(resolved); err != nil {
			broken = append(broken, fmt.Sprintf("%s: broken link %q (resolved %s)", path, m[1], resolved))
		}
	}
	return broken, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "docscheck:", err)
	os.Exit(1)
}
