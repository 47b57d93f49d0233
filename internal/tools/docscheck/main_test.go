package main

import (
	"bufio"
	"net/http/httptest"
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
