package main

import (
	"bufio"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
)

// TestMetricFamiliesMatchRegistry pins the metric scan to what ships: the
// families metricRe finds under internal/ must be exactly the families
// GET /metrics renders for a freshly built durable platform. A family
// registered some way the regexp misses would escape the docs gate; a
// scanned name that never renders would be documentation of nothing.
func TestMetricFamiliesMatchRegistry(t *testing.T) {
	scanned, err := collectMetrics(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewPlatform(core.Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	rec := httptest.NewRecorder()
	api.NewServer(p).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var rendered []string
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			rendered = append(rendered, f[2])
		}
	}
	sort.Strings(rendered)
	if !slices.Equal(scanned, rendered) {
		t.Fatalf("docscheck scans %d families, /metrics renders %d:\nscanned  %v\nrendered %v",
			len(scanned), len(rendered), scanned, rendered)
	}
}

// TestFlagTablesTwoWay: the flag check fails in both directions. On the
// shipped docs it is clean. A flag-table row naming a flag scilens-server
// does not register fails (-shards belonged to a deleted binary), and so
// does a registered flag the tables never mention.
func TestFlagTablesTwoWay(t *testing.T) {
	root := filepath.Join("..", "..", "..")
	flags, err := collectFlags(filepath.Join(root, "cmd", "scilens-server"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "docs", "OPERATIONS.md"))
	if err != nil {
		t.Fatal(err)
	}
	ops := string(raw)
	if got := checkFlags(flags, ops); len(got) != 0 {
		t.Fatalf("shipped docs: %q", got)
	}

	const addrRow = "| `-addr` |"
	if !strings.Contains(ops, addrRow) {
		t.Fatalf("docs/OPERATIONS.md has no %q row to insert before", addrRow)
	}
	stale := strings.Replace(ops, addrRow, "| `-shards` | 4 | pipeline shard/worker count |\n"+addrRow, 1)
	if got := checkFlags(flags, stale); len(got) != 1 || !strings.Contains(got[0], "-shards ") {
		t.Errorf("stale -shards row: problems %q, want one naming -shards", got)
	}

	if got := checkFlags(append(slices.Clone(flags), "undocumented"), ops); len(got) != 1 || !strings.Contains(got[0], "-undocumented ") {
		t.Errorf("undocumented flag: problems %q, want one naming -undocumented", got)
	}
}
