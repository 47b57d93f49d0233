package harness

import (
	"encoding/json"
	"fmt"
	"os"
)

// Workload names: the four BENCHMARK.json lists, which the code switches on.
const (
	ReadStored      = "read_stored"
	AssessCold      = "assess_cold"
	FirehoseDurable = "firehose_durable"
	ReplicaMixed    = "replica_mixed"
)

// Metric is one named figure of the benchmark, as BENCHMARK.json lists it.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // end-to-end only: allowed worsening of the median
}

// Benchmark is BENCHMARK.json at the root of the checkout: the one place
// that says how long a run measures, which workloads make a set, and which
// metrics a run prints with which unit and bound. The program reads it at
// start-up rather than carrying a copy.
type Benchmark struct {
	// RunSeconds is the length of every timed section.
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	// EndToEnd is what an untraced run reports, PerLayer what a traced one
	// does.
	EndToEnd []Metric `json:"end_to_end"`
	PerLayer []Metric `json:"per_layer"`
}

// LoadBenchmark reads BENCHMARK.json and refuses a file the program cannot
// run: a workload it does not implement or a run length outside the
// contract's 1 to 60 seconds.
func LoadBenchmark(path string) (*Benchmark, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	b := &Benchmark{}
	if err := json.Unmarshal(raw, b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		return nil, fmt.Errorf("%s: run_seconds = %d, want 1 to 60", path, b.RunSeconds)
	}
	if len(b.Workloads) == 0 || len(b.EndToEnd) == 0 || len(b.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: no workloads, end_to_end or per_layer metrics", path)
	}
	for _, w := range b.Workloads {
		if _, err := newWorkload(w.Name); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return b, nil
}

// fill checks a run's metrics against the list it reports from. A metric
// the program computed that the file does not list is an error — one side
// was renamed — and so is an end-to-end metric without a value. A per-layer
// metric without one reads 0: the layer did nothing on this workload, which
// is the prediction.
func fill(m map[string]float64, list []Metric, zeroMissing bool) error {
	listed := map[string]bool{}
	for _, lm := range list {
		listed[lm.Name] = true
		if _, ok := m[lm.Name]; ok {
			continue
		}
		if !zeroMissing {
			return fmt.Errorf("BENCHMARK.json lists %s, the run did not measure it", lm.Name)
		}
		m[lm.Name] = 0
	}
	for name := range m {
		if !listed[name] {
			return fmt.Errorf("the run measured %s, BENCHMARK.json does not list it", name)
		}
	}
	return nil
}
