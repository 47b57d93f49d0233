package harness

import (
	"regexp"
	"slices"
	"testing"
)

// TestBenchmarkJSONLoads holds the checkout's BENCHMARK.json to what the
// program needs of it and to the limits the accepting driver refuses a file
// on (bench/README.md quotes them).
func TestBenchmarkJSONLoads(t *testing.T) {
	b, err := LoadBenchmark("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range b.Workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, want 1 to 200", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) > 16 || len(b.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, limits 16 and 128", len(b.EndToEnd), len(b.PerLayer))
	}
	var setup *Metric
	for i, m := range slices.Concat(b.EndToEnd, b.PerLayer) {
		check(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if i >= len(b.EndToEnd) {
			continue
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = &b.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("end_to_end needs setup_s in s, lower is better; got %+v", setup)
	}
}

func TestFill(t *testing.T) {
	list := []Metric{{Name: "a"}, {Name: "b"}}
	m := map[string]float64{"a": 1}
	if err := fill(m, list, false); err == nil {
		t.Error("an end-to-end metric without a value must be an error")
	}
	if err := fill(m, list, true); err != nil || len(m) != 2 || m["b"] != 0 {
		t.Errorf("a per-layer metric without a value reads 0: got %v, %v", m, err)
	}
	m["c"] = 1
	if err := fill(m, list, true); err == nil {
		t.Error("a measured metric the file does not list must be an error")
	}
}
