// Command scilint is the repository's codebase-invariant static-analysis
// suite. It enforces conventions the compiler cannot: every byte of rdbms
// I/O routes through internal/rdbms/vfs, durability-critical error values
// are never dropped, stripe locks are released on every return path,
// recovery/replay and model-scoring code stays deterministic, every HTTP
// handler bounds the request body it decodes, and package unsafe stays in
// the one file that owns the rdbms.Value layout. The invariants and the
// PRs that motivated them are documented in docs/DEVELOPMENT.md.
//
// Run from the repository root:
//
//	go run ./internal/tools/scilint ./...
//
// Output is one finding per line in "file:line: [rule] message" form
// (or a JSON array with -json); the exit status is 1 when any
// unsuppressed finding exists, 2 on a driver error, 0 when clean.
//
// A finding is suppressed by a comment on the same line or the line
// directly above it:
//
//	//scilint:ignore <rule>[,<rule>] <reason>
//
// The reason is mandatory — a suppression without one is itself reported.
// The analyzer suite is pluggable: see the Analyzer interface in
// driver.go and the registry below.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// registry is the full analyzer suite, in reporting-name order.
var registry = []Analyzer{
	determinism{},
	durErrCheck{},
	httpBody{},
	lockHygiene{},
	unsafeConfine{},
	vfsDiscipline{},
}

func main() {
	var (
		jsonOut = flag.Bool("json", false, "emit findings as a JSON array on stdout")
		rules   = flag.String("rules", "", "comma-separated subset of analyzers to run (default: all)")
		list    = flag.Bool("list", false, "list the registered analyzers and exit")
	)
	flag.Parse()

	if *list {
		for _, a := range registry {
			fmt.Printf("%-15s %s\n", a.Name(), a.Doc())
		}
		return
	}

	selected, err := selectAnalyzers(*rules)
	if err != nil {
		fatal(err)
	}

	module, err := moduleName("go.mod")
	if err != nil {
		fatal(fmt.Errorf("%v (scilint must run from the repository root)", err))
	}
	root, err := os.Getwd()
	if err != nil {
		fatal(err)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs, err := expandPatterns(patterns)
	if err != nil {
		fatal(err)
	}

	ld := newLoader(root, module)
	findings, err := runAnalyzers(ld, dirs, selected)
	if err != nil {
		fatal(err)
	}
	for _, w := range ld.Warnings {
		fmt.Fprintln(os.Stderr, "scilint: warning:", w)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fatal(err)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f.String())
		}
		if len(findings) == 0 {
			fmt.Printf("scilint: %d packages clean (%d analyzers)\n", len(dirs), len(selected))
		}
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// selectAnalyzers resolves the -rules flag against the registry.
func selectAnalyzers(rules string) ([]Analyzer, error) {
	if rules == "" {
		return registry, nil
	}
	byName := map[string]Analyzer{}
	for _, a := range registry {
		byName[a.Name()] = a
	}
	var out []Analyzer
	for _, name := range strings.Split(rules, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (use -list)", name)
		}
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "scilint:", err)
	os.Exit(2)
}
