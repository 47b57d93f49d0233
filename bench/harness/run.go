package harness

import (
	"context"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/bench/layers"
	"repro/bench/measure"
)

// Options selects one run.
type Options struct {
	Workload string
	Seed     int64
	// Trace selects the traced run, which reports the per-layer metrics;
	// the end-to-end metrics always come from an untraced run.
	Trace bool
	// Clients is C, the number of keep-alive connections that carry the
	// workload's operations.
	Clients int

	// seconds is the length of the timed section: BENCHMARK.json's
	// run_seconds, which Run fills in. It is not the caller's to choose — two
	// runs that differed by it would not end in the same state.
	seconds int
}

// Result is one run of one workload.
type Result struct {
	Workload  string
	Seed      int64
	Trace     bool
	Attempted int64
	Failed    int64
	// Problems are the output checks that failed; any makes the run
	// incorrect and counts as one failed operation.
	Problems []string
	// Metrics holds the end-to-end metrics of an untraced run or the
	// per-layer metrics of a traced one.
	Metrics map[string]float64
	// Notes are remarks for the reader (a fallback taken, the ladder's
	// self-time sum); they never affect correctness.
	Notes []string
}

// Correct reports whether every operation succeeded and every check held.
func (r *Result) Correct() bool { return r.Failed == 0 && len(r.Problems) == 0 }

// workload is what differs between the four workloads.
type workload interface {
	// prepare generates the inputs from the seed, before any server runs.
	prepare(o Options) error
	// setUp launches the servers once and returns them ready to serve.
	setUp(ctx context.Context, e *Env, o Options) (*cluster, error)
	// drive sends the load and returns what the clients saw.
	drive(ctx context.Context, cl *cluster, o Options) (*driven, error)
	// verify checks the outputs once the clock has stopped. It may add
	// metrics only it can measure (a restart's recovery time).
	verify(ctx context.Context, e *Env, cl *cluster, o Options, d *driven, m map[string]float64) ([]string, error)
	// ladder replays a sample of the inputs through the layers in-process.
	ladder(e *Env, o Options) (*layers.Trace, error)
	// route is the ServeMux pattern of the workload's operation.
	route() string
}

func newWorkload(name string) (workload, error) {
	switch name {
	case ReadStored:
		return &readStored{}, nil
	case AssessCold:
		return &assessCold{}, nil
	case FirehoseDurable:
		return &firehoseDurable{}, nil
	case ReplicaMixed:
		return &replicaMixed{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// An untraced run sets the servers up four times: the first launch is
// discarded (the first exec after a build reads the binary from disk and
// measured 0.9-1.26 s against 0.65-0.72 s after), setup_s is the median of
// the next three, and the last serves the load.
const (
	discardedLaunches = 1
	setupLaunches     = 3
)

// Run runs one workload once.
func Run(ctx context.Context, e *Env, o Options) (res *Result, err error) {
	w, err := newWorkload(o.Workload)
	if err != nil {
		return nil, err
	}
	o.seconds = e.Bench.RunSeconds
	res = &Result{Workload: o.Workload, Seed: o.Seed, Trace: o.Trace, Metrics: map[string]float64{}}
	m := res.Metrics
	defer func() {
		if serr := e.Sweep(); serr != nil && err == nil {
			res, err = nil, serr
		}
	}()

	start := time.Now()
	if err := w.prepare(o); err != nil {
		return nil, fmt.Errorf("prepare inputs: %w", err)
	}
	prepareSeconds := time.Since(start).Seconds()

	launches := discardedLaunches + setupLaunches
	if o.Trace {
		launches = 1 // a traced run reports no setup_s
	}
	var cl *cluster
	var setups []float64
	for i := 0; i < launches; i++ {
		if cl != nil {
			cl.kill()
		}
		if cl, err = w.setUp(ctx, e, o); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		if i >= launches-setupLaunches {
			setups = append(setups, cl.setupSeconds)
		}
	}
	defer cl.kill()

	d, err := w.drive(ctx, cl, o)
	if err != nil {
		return nil, fmt.Errorf("drive: %w", err)
	}
	res.Attempted, res.Failed = d.attempted, d.failed

	// The clock has stopped: live heap after a forced collection, summed
	// over the servers. A durable primary is checkpointed first: its own
	// byte-triggered checkpoint may otherwise still be running, holding a
	// generation's worth of buffers, in one run and not in the next.
	var heap float64
	for _, s := range cl.servers {
		if s.Spec.DataDir != "" && s.Spec.ReplicaOf == "" {
			if err := s.Checkpoint(); err != nil {
				return nil, err
			}
		}
		ms, err := s.MemStats()
		if err != nil {
			return nil, err
		}
		heap += float64(ms.HeapAlloc) / 1e6
	}

	if o.Trace {
		m["loadgen.prepare_s"] = prepareSeconds
		m["loadgen.build_s"] = e.BuildSeconds
		m["repl.bootstrap_s"] = cl.followerSeconds
		layerMetrics(w, cl, d, m)
		for _, s := range cl.servers {
			rss, err := s.PeakRSSMB()
			if err != nil {
				return nil, err
			}
			m["proc.rss_peak_mb"] += rss
		}
	} else {
		c := endToEnd(d, d.sections[0])
		m["throughput_per_s"], m["cpu_ms_per_op"] = c.throughput, c.cpuMsPerOp
		// Latency is reported, not gated (bench/README.md says why): by the
		// traced run as client.latency_p50_ms and _p99_ms, and here as a note.
		res.Notes = append(res.Notes,
			"window throughputs, 1/s: "+strings.Join(c.windowRates, " "),
			"window latency p50s, ms: "+strings.Join(c.windowP50, " "),
			fmt.Sprintf("client latency, ms (ungated): p50 %.4f p99 %.4f", c.p50, c.p99))
		m["setup_s"] = measure.Median(setups)
		m["heap_live_mb"] = heap
	}

	problems, err := w.verify(ctx, e, cl, o, d, m)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	res.Problems = problems
	cl.kill()

	if o.Trace {
		tr, err := w.ladder(e, o)
		if err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		res.Notes = append(res.Notes, ladderMetrics(tr, m)...)
		path := filepath.Join(e.Out, "trace-"+o.Workload+".json")
		if err := tr.WriteFile(path); err != nil {
			return nil, err
		}
		res.Notes = append(res.Notes, "spans written to "+path)
		err = fill(m, e.Bench.PerLayer, true)
	} else {
		err = fill(m, e.Bench.EndToEnd, false)
	}
	if err != nil {
		return nil, err
	}
	res.Failed += int64(len(res.Problems))
	res.Attempted += int64(len(res.Problems))
	return res, nil
}

// clientSide is what the clients saw of one section, with the servers' CPU
// per operation.
type clientSide struct {
	throughput, cpuMsPerOp float64 // medians of the window values
	p50, p99               float64 // ms, over all the section's samples
	windowRates, windowP50 []string
}

// endToEnd reduces a section to the client-side figures: rates and CPU as
// the median of the window values, latency percentiles over all the
// section's samples.
func endToEnd(d *driven, sec section) clientSide {
	ws := d.windows(sec)
	var c clientSide
	// Latency percentiles are taken over the whole section, not per window:
	// measured both ways over the same runs, pooling gave the steadier p50
	// on every workload and halved the run-to-run spread of p99 (a window
	// holds a fifth of the tail's samples).
	var all []float64
	for _, w := range ws {
		c.windowRates = append(c.windowRates, fmt.Sprintf("%.0f", w.Rate()))
		p50, _ := measure.Percentile(w.Latencies, 0.50)
		c.windowP50 = append(c.windowP50, fmt.Sprintf("%.4f", p50))
		all = append(all, w.Latencies...)
	}
	sort.Float64s(all)
	c.p50, _ = measure.Percentile(all, 0.50)
	c.p99, _ = measure.Percentile(all, 0.99)
	c.throughput, _ = measure.WindowMedian(ws, func(w measure.Window) (float64, bool) { return w.Rate(), true })
	c.cpuMsPerOp, _ = measure.WindowMedian(ws, func(w measure.Window) (float64, bool) {
		ops := w.Ops + d.sideOps(w.Start, w.End)
		if ops == 0 {
			return 0, false
		}
		return d.cpu.serverSeconds(w.Start, w.End, -1) * 1e3 / float64(ops), true
	})
	return c
}

// snapshot is one scrape of every server of a cluster.
type snapshot struct {
	metrics []measure.Series
	stats   []PipelineStats
	mem     []measure.MemStats
}

func takeSnapshot(cl *cluster) (*snapshot, error) {
	sn := &snapshot{}
	for _, s := range cl.servers {
		ms, err := s.Metrics()
		if err != nil {
			return nil, err
		}
		st, err := s.Stats()
		if err != nil {
			return nil, err
		}
		// No forced collection here: TotalAlloc and Mallocs are exact
		// without one, and a collection would perturb the section.
		body, err := get(s.DebugAddr, "/debug/pprof/heap?debug=1")
		if err != nil {
			return nil, err
		}
		mem, err := measure.ParseMemStats(body)
		if err != nil {
			return nil, err
		}
		sn.metrics = append(sn.metrics, ms)
		sn.stats = append(sn.stats, st)
		sn.mem = append(sn.mem, mem)
	}
	return sn, nil
}

// layerMetrics derives the per-layer figures that come from outside the
// program: /metrics, /api/stats and pprof MemStats deltas over the traced
// section, and the clients' own records.
func layerMetrics(w workload, cl *cluster, d *driven, m map[string]float64) {
	plain, traced := d.sections[0], d.sections[len(d.sections)-1]
	tw := d.windows(traced)
	var ops, workOps int64 // the workload's ops; ops plus side work
	var all []float64      // every latency of the traced section
	for _, win := range tw {
		ops += win.Ops
		all = append(all, win.Latencies...)
	}
	workOps = ops + d.sideOps(traced.start, traced.end)
	events := workOps // ingest events the servers took in, when any
	if !d.byOps {
		events = d.sideOps(traced.start, traced.end)
	}
	wall := float64(traced.end-traced.start) / 1e9
	perOp := func(v float64) float64 {
		if workOps == 0 {
			return 0
		}
		return v / float64(workOps)
	}
	perEvent := func(v float64) float64 {
		if events == 0 {
			return 0
		}
		return v / float64(events)
	}

	// Clients.
	inTraced, inPlain := endToEnd(d, traced), endToEnd(d, plain)
	if inPlain.throughput > 0 {
		m["trace.overhead_share"] = 1 - inTraced.throughput/inPlain.throughput
	}
	m["client.latency_p50_ms"], m["client.latency_p99_ms"] = inTraced.p50, inTraced.p99
	sort.Float64s(all)
	m["client.latency_mean_ms"] = measure.Mean(all)
	if v, ok := measure.Percentile(all, 0.999); ok {
		m["client.latency_p999_ms"] = v
	}
	var rates []float64
	for _, win := range append(d.windows(plain), tw...) {
		rates = append(rates, win.Rate())
	}
	if med := measure.Median(rates); med > 0 {
		lo, hi := rates[0], rates[0]
		for _, r := range rates {
			lo, hi = min(lo, r), max(hi, r)
		}
		m["client.window_spread"] = (hi - lo) / med
	}
	if len(d.lateMs) > 0 {
		late := append([]float64(nil), d.lateMs...)
		sort.Float64s(late)
		m["loadgen.late_p99_ms"], _ = measure.Percentile(late, 0.99)
	}
	serverCPU := d.cpu.serverSeconds(traced.start, traced.end, -1)
	selfCPU := d.cpu.selfSeconds(traced.start, traced.end)
	if serverCPU+selfCPU > 0 {
		m["loadgen.cpu_share"] = selfCPU / (serverCPU + selfCPU)
	}

	// Servers: index 0 is the primary, the last one serves the operations.
	var delta []measure.Series
	for i := range cl.servers {
		delta = append(delta, measure.Delta(d.before.metrics[i], d.after.metrics[i]))
	}
	pri, tgt := delta[0], delta[len(delta)-1]
	sumAll := func(name string, frag ...string) float64 {
		var t float64
		for _, dm := range delta {
			t += dm.Sum(name, frag...)
		}
		return t
	}

	m["http.request_bytes"] = perOp(sumAll("scilens_http_request_body_bytes_sum"))
	m["http.response_bytes"] = perOp(sumAll("scilens_http_response_body_bytes_sum"))
	route := `route="` + w.route() + `"`
	if v, ok := tgt.HistQuantile(0.5, "scilens_http_request_seconds", route); ok {
		m["api.server_p50_ms"] = v * 1e3
	}
	var probeMisses int64
	if d.probes != nil {
		visible, misses := d.probes.stop()
		probeMisses = misses
		layer := "stream"
		if len(cl.servers) > 1 {
			layer = "repl"
		}
		if len(visible) > 0 {
			m[layer+".visible_p50_ms"], _ = measure.Percentile(visible, 0.50)
			m[layer+".visible_p99_ms"], _ = measure.Percentile(visible, 0.99)
		}
	}
	// A freshness probe polls until its posting is readable; the 404s it
	// collects on the way are the probe working, not the server failing.
	m["api.errors"] = sumAll("scilens_http_requests_total", `class="4xx"`) +
		sumAll("scilens_http_requests_total", `class="5xx"`) - float64(probeMisses)

	hits := sumAll("scilens_engine_cache_hits_total")
	lookups := hits + sumAll("scilens_engine_cache_misses_total") + sumAll("scilens_engine_cache_joins_total")
	if lookups > 0 {
		m["indicators.cache_hit_ratio"] = hits / lookups
	}
	if v, ok := tgt.HistQuantile(0.5, "scilens_engine_eval_cold_seconds"); ok {
		m["indicators.eval_cold_p50_ms"] = v * 1e3
	}
	m["compute.queue_wait_ms"] = pri.HistMean("scilens_compute_queue_wait_seconds") * 1e3
	m["compute.task_ms"] = pri.HistMean("scilens_compute_task_seconds") * 1e3

	m["stream.queue_wait_ms"] = pri.HistMean("scilens_pipeline_queue_wait_seconds") * 1e3
	m["stream.evaluate_ms_per_batch"] = pri.HistMean("scilens_pipeline_evaluate_seconds") * 1e3
	m["stream.commit_ms_per_batch"] = pri.HistMean("scilens_pipeline_commit_seconds") * 1e3
	m["stream.batch_records"] = pri.HistMean("scilens_pipeline_batch_records")
	if shards := d.after.metrics[0].Sum("scilens_pipeline_shards"); shards > 0 && wall > 0 {
		busy := pri.Sum("scilens_pipeline_evaluate_seconds_sum") + pri.Sum("scilens_pipeline_commit_seconds_sum")
		m["stream.busy_share"] = busy / (wall * shards)
	}
	ps0, ps1 := d.before.stats[0].Pipeline, d.after.stats[0].Pipeline
	m["stream.shed"] = float64(ps1.Shed - ps0.Shed)
	m["stream.throttled"] = float64(ps1.Throttled - ps0.Throttled)
	m["stream.retries"] = float64(ps1.Retried - ps0.Retried)
	m["stream.dead_letters"] = float64(ps1.DeadLettered - ps0.DeadLettered)
	m["stream.feed_published"] = pri.Sum("scilens_feed_published_total")
	m["stream.feed_dropped"] = pri.Sum("scilens_feed_dropped_total")

	st0, st1 := d.before.stats[0].Storage, d.after.stats[0].Storage
	m["rdbms.wal_append_us"] = pri.HistMean("scilens_wal_append_seconds") * 1e6
	m["rdbms.fsync_ms"] = pri.HistMean("scilens_wal_fsync_seconds") * 1e3
	m["rdbms.group_commit_records"] = pri.HistMean("scilens_wal_group_commit_records")
	m["rdbms.fsyncs_per_kevent"] = perEvent(pri.Sum("scilens_wal_fsync_seconds_count")) * 1e3
	m["rdbms.wal_bytes_per_event"] = perEvent(float64(st1.WALBytes - st0.WALBytes))
	m["rdbms.checkpoints"] = pri.Sum("scilens_checkpoints_total")
	m["rdbms.checkpoint_s"] = pri.HistMean("scilens_checkpoint_seconds")
	m["rdbms.checkpoint_bytes_per_event"] = perEvent(pri.Sum("scilens_checkpoint_bytes_total"))
	m["rdbms.lock_wait_ms"] = pri.HistMean("scilens_partition_lock_wait_seconds") * 1e3
	if writes := float64(st1.WALRecords - st0.WALRecords); writes > 0 {
		m["rdbms.lock_contended_share"] = pri.Sum("scilens_partition_lock_contended_total") / writes
	}

	if len(cl.servers) > 1 {
		fol := delta[1]
		m["repl.bytes_per_event"] = perEvent(fol.Sum("scilens_repl_bytes_received_total"))
		m["repl.records_applied"] = fol.Sum("scilens_repl_records_applied_total")
		m["repl.reconnects"] = fol.Sum("scilens_repl_reconnects_total")
		m["repl.full_resyncs"] = fol.Sum("scilens_repl_full_resyncs_total")
		m["repl.lag_bytes_max"] = d.lagBytesMax
		m["repl.follower_cpu_ms_per_event"] = perEvent(d.cpu.serverSeconds(traced.start, traced.end, 1) * 1e3)
	}

	var alloc, mallocs float64
	for i := range cl.servers {
		alloc += float64(d.after.mem[i].TotalAlloc - d.before.mem[i].TotalAlloc)
		mallocs += float64(d.after.mem[i].Mallocs - d.before.mem[i].Mallocs)
	}
	m["proc.alloc_kb_per_op"] = perOp(alloc) / 1e3
	m["proc.mallocs_per_op"] = perOp(mallocs)
	m["proc.gc_cycles"] = sumAll("go_gc_cycles_total")
	m["proc.gc_pause_ms"] = sumAll("go_gc_pause_seconds_total") * 1e3
}

// ladderMetrics reduces the ladder's spans to the L metrics: medians of
// span durations and of self times. It also reports how the self times add
// up against the handler's span, the check that no layer was left out.
func ladderMetrics(tr *layers.Trace, m map[string]float64) (notes []string) {
	total, self := tr.Durations()
	med := func(xs []float64) float64 { return measure.Median(xs) }
	set := func(metric, span string, from map[string][]float64) {
		if xs := from[span]; len(xs) > 0 {
			m[metric] = med(xs)
		}
	}
	set("api.serve_us", "api.serve", total)
	set("api.self_us", "api.serve", self)
	set("core.assess_url_us", "core.assess_url", total)
	set("core.self_us", "core.assess_url", self)
	set("core.stream_event_us", "core.stream_event", total)
	// One event in ten is a posting that costs thirty times a reaction; the
	// median would describe a reaction, the mean is what an event costs.
	if xs := total["core.ingest_event"]; len(xs) > 0 {
		m["core.ingest_event_us"] = measure.Mean(xs)
	}
	set("indicators.evaluate_cold_us", "indicators.evaluate_cold", total)
	set("indicators.self_us", "indicators.evaluate_cold", self)
	set("indicators.evaluate_warm_us", "indicators.evaluate_warm", total)
	if xs := total["indicators.evaluate_batch"]; len(xs) > 0 {
		m["indicators.batch_us_per_doc"] = med(xs) / 64
	}
	set("extract.parse_us", "extract.parse", total)
	set("textutil.analysis_us", "textutil.analysis", total)
	set("contentind.analyze_us", "contentind.analyze", total)
	set("readability.score_us", "readability.score", total)
	set("refind.analyze_us", "refind.analyze", total)
	set("topics.tag_us", "topics.tag", total)
	set("stream.enqueue_us", "stream.enqueue", total)
	set("rdbms.view_us", "rdbms.view", total)
	set("rdbms.view_eq_us", "rdbms.view_eq", total)
	set("rdbms.insert_us", "rdbms.insert", total)
	set("rdbms.mutate_us", "rdbms.mutate", total)

	if serve := m["api.serve_us"]; serve > 0 {
		// What the wire, the kernel and net/http's connection handling add
		// on top of the handler: client-side median minus the handler's.
		m["http.overhead_us"] = m["client.latency_p50_ms"]*1e3 - serve

		// Per span the self times add up to the handler's span by
		// construction; their medians need not, and how close they come says
		// how well a median describes each layer.
		var sum float64
		for name, xs := range self {
			if tr.Under("api.serve", name) {
				sum += med(xs)
			}
		}
		notes = append(notes, fmt.Sprintf("ladder: median layer self times sum to %.1f us against api.serve_us %.1f us (%+.1f%%)",
			sum, serve, 100*(sum-serve)/serve))
	}
	return notes
}

// dirBytes is the size of everything under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return err
		}
		info, err := de.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
