// Command scilens-bench is the repository's benchmark: it builds and
// launches the real scilens-server on loopback, drives one of four
// workloads over HTTP from this process, checks what came back, and prints
// every metric by name with its unit. bench/README.md says what each
// metric is for and how to read the output.
//
// Usage (through bench/run.sh, which builds this command first):
//
//	bench/run.sh [-workload all|read_stored|assess_cold|firehose_durable|replica_mixed]
//	             [-seed N] [-trace 0|1] [-repeat N]
//
// The last line of standard output is one JSON object: for a single run
// the keys correct, attempted, failed and metrics; for several (-workload
// all, -repeat) correct and runs, a list of such objects with workload and
// seed added. The exit status is non-zero when an operation failed or an
// output check did not hold.
//
// The accepting driver also passes -seconds with BENCHMARK.json's
// run_seconds. The run length is read from that file, so the flag selects
// nothing; it is accepted, and refused when the two differ.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"repro/bench/harness"
	"repro/bench/measure"
)

func main() {
	var (
		benchDir = flag.String("bench-dir", "bench", "the benchmark's directory inside the checkout (run.sh passes it)")
		workload = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Int("seconds", 0, "what the driver passes: must be BENCHMARK.json's run_seconds, which sets the run length")
		trace    = flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
		repeat   = flag.Int("repeat", 1, "run this many sets (seed, seed+1, ...) and print how well they agree")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *repeat < 1 {
		flag.Usage()
		os.Exit(2)
	}
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	code := run(ctx, *benchDir, *workload, *seed, *seconds, *trace == 1, *repeat)
	cancel()
	os.Exit(code)
}

// run is main without os.Exit, so that the deferred clean-up — kill every
// server, remove every data dir — runs on every path out.
func run(ctx context.Context, benchDir, workload string, seed int64, seconds int, trace bool, repeat int) int {
	env, err := harness.NewEnv(ctx, benchDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scilens-bench:", err)
		return 1
	}
	defer env.Close()
	if seconds != 0 && seconds != env.Bench.RunSeconds {
		fmt.Fprintf(os.Stderr, "scilens-bench: -seconds %d, but BENCHMARK.json fixes run_seconds at %d\n", seconds, env.Bench.RunSeconds)
		return 2
	}
	names := []string{workload}
	if workload == "all" {
		names = nil
		for _, w := range env.Bench.Workloads {
			names = append(names, w.Name)
		}
	}
	clients := min(runtime.NumCPU(), 4)
	printEnv(env, clients)

	ok := true
	sets := make([][]*harness.Result, repeat)
	var runs []namedRun
	for i := range sets {
		for _, name := range names {
			res, err := harness.Run(ctx, env, harness.Options{
				Workload: name, Seed: seed + int64(i), Trace: trace, Clients: clients,
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "scilens-bench: %s: %v\n", name, err)
				return 1
			}
			sets[i] = append(sets[i], res)
			ok = ok && res.Correct()
			runs = append(runs, report(env.Bench, res))
		}
	}
	if repeat > 1 && !agreement(env.Bench.EndToEnd, sets) {
		ok = false
	}
	// The last line: the one run's object, or one object holding them all.
	var last any = runs[0].runJSON
	if len(runs) > 1 {
		last = struct {
			Correct bool       `json:"correct"`
			Runs    []namedRun `json:"runs"`
		}{ok, runs}
	}
	b, err := json.Marshal(last)
	if err != nil {
		panic(err) // structs of numbers and strings always marshal
	}
	fmt.Println(string(b))
	if !ok {
		return 1
	}
	return 0
}

func printEnv(env *harness.Env, clients int) {
	load := "unknown"
	noisy := false
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		load = strings.Fields(string(b))[0]
		var l float64
		fmt.Sscan(load, &l)
		noisy = l > 0.5*float64(runtime.NumCPU())
	}
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	commit := "unknown"
	if out, err := exec.Command("git", "-C", env.Root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	var st syscall.Statfs_t
	fsType := "unknown"
	if syscall.Statfs(env.Out, &st) == nil {
		fsType = fmt.Sprintf("%#x", st.Type)
	}
	gomaxprocs := os.Getenv("GOMAXPROCS")
	if gomaxprocs == "" {
		gomaxprocs = "unset"
	}
	fmt.Printf("env nproc=%d clients=%d GOMAXPROCS=%s go=%s kernel=%s commit=%s out-fs=%s load1=%s noisy=%v build_s=%.2f\n",
		runtime.NumCPU(), clients, gomaxprocs, runtime.Version(), kernel, commit, fsType, load, noisy, env.BuildSeconds)
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runJSON is the object the driver reads from the last line of a run.
type runJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// namedRun is one run among several.
type namedRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	runJSON
}

// report prints one run, a line per metric, and returns it for the JSON
// object on the last line.
func report(bm *harness.Benchmark, res *harness.Result) namedRun {
	list := bm.EndToEnd
	if res.Trace {
		list = bm.PerLayer
	}
	out := namedRun{res.Workload, res.Seed, runJSON{res.Correct(), res.Attempted, res.Failed, map[string]metricJSON{}}}
	for _, m := range list {
		v := res.Metrics[m.Name]
		fmt.Printf("%-17s seed=%-4d %-34s %14.4f %s\n", res.Workload, res.Seed, m.Name, v, m.Unit)
		out.Metrics[m.Name] = metricJSON{v, m.Unit}
	}
	for _, n := range res.Notes {
		fmt.Printf("%-17s note: %s\n", res.Workload, n)
	}
	for _, p := range res.Problems {
		fmt.Printf("%-17s CHECK FAILED: %s\n", res.Workload, p)
	}
	fmt.Printf("%-17s attempted=%d failed=%d correct=%v\n", res.Workload, res.Attempted, res.Failed, res.Correct())
	return out
}

// agreement prints, per workload and end-to-end metric, the median and
// quartiles over the sets, the interquartile spread as a share of the
// median, and how far the second half's median is from the first half's in
// the direction that counts as worse. It reports false when a disagreement
// exceeds half the metric's bound, or a spread the bound itself.
func agreement(endToEnd []harness.Metric, sets [][]*harness.Result) bool {
	if sets[0][0].Trace {
		return true // per-layer metrics carry no bound
	}
	ok := true
	fmt.Printf("\n%-17s %-17s %12s %12s %12s %8s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "spread", "halves", "bound")
	for wi := range sets[0] {
		for _, m := range endToEnd {
			var vals []float64
			for _, set := range sets {
				vals = append(vals, set[wi].Metrics[m.Name])
			}
			q1, q2, q3 := measure.Quartiles(vals)
			spread := measure.Spread(vals)
			half := len(vals) / 2
			first, second := measure.Median(vals[:half]), measure.Median(vals[half:])
			worse := (second - first) / first
			if m.Better == "higher" {
				worse = -worse
			}
			flag := ""
			// Set-up time's spread is reported but not held to its bound:
			// the bound guards its median only.
			if worse > m.Bound/2 || (spread > m.Bound && m.Name != "setup_s") {
				ok = false
				flag = "  <-- disagrees"
			}
			fmt.Printf("%-17s %-17s %12.4f %12.4f %12.4f %7.2f%% %+7.2f%% %5.0f%%%s\n",
				sets[0][wi].Workload, m.Name, q1, q2, q3, 100*spread, 100*worse, 100*m.Bound, flag)
		}
	}
	return ok
}
