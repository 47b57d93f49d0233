// Command docscheck is the CI docs-consistency gate. It fails when
//
//  1. an HTTP route registered in internal/api (a `mux.HandleFunc("METHOD
//     /api/...")` call) is not documented in docs/API.md, or a
//     `| `METHOD /api/...` |` row of docs/API.md's route table names a
//     route internal/api does not register, or
//  2. a relative markdown link in docs/ (or a root markdown file) points
//     at a file that does not exist, or
//  3. a command-line flag registered by cmd/scilens-server or
//     cmd/scilens-ingest is missing from the docs/OPERATIONS.md flag
//     tables, or
//  4. a metric family registered on an obs.Registry anywhere under
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

// metricRe matches metric-family registrations on an obs.Registry like
// reg.NewCounter("scilens_..._total", ...), the name on the call's own
// line. TestMetricFamiliesMatchRegistry pins that this finds exactly the
// families a built platform's /metrics renders.
var metricRe = regexp.MustCompile(`\bNew(?:CounterVec|Counter|GaugeVec|GaugeFunc|Gauge|DurationHistogramVec|DurationHistogram|SizeHistogramVec|SizeHistogram)\("([a-z0-9_]+)"`)

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

	flags, err := collectFlags("cmd/scilens-server", "cmd/scilens-ingest")
	if err != nil {
		fatal(err)
	}
	if len(flags) == 0 {
		fatal(fmt.Errorf("no flag registrations found under cmd/ — is docscheck running from the repo root?"))
	}
	opsDoc, err := os.ReadFile(filepath.Join("docs", "OPERATIONS.md"))
	if err != nil {
		fatal(fmt.Errorf("docs/OPERATIONS.md: %w", err))
	}
	for _, f := range flags {
		// Flags appear in the OPERATIONS.md tables as backticked `-name`.
		if !strings.Contains(string(opsDoc), "`-"+f+"`") {
			problems = append(problems, fmt.Sprintf("flag -%s registered under cmd/ but absent from the docs/OPERATIONS.md flag tables", f))
		}
	}

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
	fmt.Printf("docscheck: %d routes documented, %d flags documented, %d metrics documented, %d markdown files link-checked\n", len(routes), len(flags), len(metrics), len(mds))
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

// collectFlags scans each command directory's Go sources for stdlib flag
// registrations and returns the sorted union of flag names.
func collectFlags(dirs ...string) ([]string, error) {
	set := map[string]bool{}
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
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
	}
	flags := make([]string, 0, len(set))
	for f := range set {
		flags = append(flags, f)
	}
	sort.Strings(flags)
	return flags, nil
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
