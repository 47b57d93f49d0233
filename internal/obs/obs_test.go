package obs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_total", "help")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.NewCounter("test_total", "help"); again != c {
		t.Fatal("re-registering the same counter must return the same child")
	}
	g := r.NewGauge("test_gauge", "help")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("clash", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a gauge over a counter name must panic")
		}
	}()
	r.NewGauge("clash", "help")
}

func TestVecChildIdentity(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("vec_total", "help", "shard")
	a, b := v.With("0"), v.With("0")
	if a != b {
		t.Fatal("With with equal labels must return the same child")
	}
	if v.With("1") == a {
		t.Fatal("distinct labels must get distinct children")
	}
}

// TestHistogramConcurrent drives a histogram from many goroutines (run
// under -race in CI) and checks exact count/sum and quantile bounds.
func TestHistogramConcurrent(t *testing.T) {
	h := NewRegistry().NewDurationHistogram("hist_seconds", "help")
	const goroutines, per = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				// Spread observations over 1µs..~1ms.
				h.ObserveDuration(time.Duration(1000 + (g*per+i)%1000000))
			}
		}(g)
	}
	wg.Wait()
	if got, want := h.Count(), uint64(goroutines*per); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	var wantSum int64
	for g := 0; g < goroutines; g++ {
		for i := 0; i < per; i++ {
			wantSum += int64(1000 + (g*per+i)%1000000)
		}
	}
	if got := h.Sum(); got != wantSum {
		t.Fatalf("sum = %d, want %d", got, wantSum)
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	h := NewRegistry().NewSizeHistogram("batch_records", "help")
	for _, v := range []int64{0, 1, 2, 3, 4, 1 << 20} {
		h.Observe(v)
	}
	counts := h.bucketCounts()
	// bounds: 1,2,4,...  0 and 1 → bucket 0; 2 → bucket 1; 3,4 → bucket 2;
	// 1<<20 overflows into +Inf.
	if counts[0] != 2 || counts[1] != 1 || counts[2] != 2 {
		t.Fatalf("bucket counts = %v", counts[:3])
	}
	if counts[len(counts)-1] != 1 {
		t.Fatalf("+Inf bucket = %d, want 1", counts[len(counts)-1])
	}
}

// TestExpositionFormat pins the text exposition down to the byte on a
// small fixed registry — the format half of the /metrics golden. It starts
// from an empty registry: NewRegistry's go_* gauges vary run to run.
func TestExpositionFormat(t *testing.T) {
	r := newRegistry()
	c := r.NewCounterVec("app_requests_total", "Requests served.", "route")
	c.With("GET /x").Add(3)
	g := r.NewGauge("app_depth", "Queue depth.")
	g.Set(-2)
	h := r.newHistogramVec("app_batch", "Batch sizes.", 0, 2, 1).With()
	h.Observe(1)
	h.Observe(2)
	h.Observe(100)
	hv := r.newHistogramVec("app_routed", "Routed sizes.", 0, 1, 1, "route")
	hv.With("b").Observe(5)
	hv.With("a").Observe(1)
	cv := r.NewCounterVec("app_errors_total", "Errors seen.", "code", "msg")
	cv.With("500", "say \"hi\"\\\n").Inc()
	cv.With("404", "gone").Add(2)
	r.NewGaugeFunc("app_ratio", "A constant ratio.", func() float64 { return 0.25 })

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP app_batch Batch sizes.
# TYPE app_batch histogram
app_batch_bucket{le="1"} 1
app_batch_bucket{le="2"} 2
app_batch_bucket{le="+Inf"} 3
app_batch_sum 103
app_batch_count 3
# HELP app_depth Queue depth.
# TYPE app_depth gauge
app_depth -2
# HELP app_errors_total Errors seen.
# TYPE app_errors_total counter
app_errors_total{code="404",msg="gone"} 2
app_errors_total{code="500",msg="say \"hi\"\\\n"} 1
# HELP app_ratio A constant ratio.
# TYPE app_ratio gauge
app_ratio 0.25
# HELP app_requests_total Requests served.
# TYPE app_requests_total counter
app_requests_total{route="GET /x"} 3
# HELP app_routed Routed sizes.
# TYPE app_routed histogram
app_routed_bucket{route="a",le="1"} 1
app_routed_bucket{route="a",le="+Inf"} 1
app_routed_sum{route="a"} 1
app_routed_count{route="a"} 1
app_routed_bucket{route="b",le="1"} 0
app_routed_bucket{route="b",le="+Inf"} 1
app_routed_sum{route="b"} 5
app_routed_count{route="b"} 1
`
	if sb.String() != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", sb.String(), want)
	}
}

func TestLabelEscaping(t *testing.T) {
	if got := escapeLabel("a\"b\\c\nd"); got != `a\"b\\c\nd` {
		t.Fatalf("escapeLabel = %q", got)
	}
}

// TestTraceRingEviction pins the ring's eviction order (oldest first)
// and the slowest-N retention that outlives it.
func TestTraceRingEviction(t *testing.T) {
	tr := NewTracer(3, 1)
	rec := func(id string, ms float64) TraceRecord {
		return TraceRecord{ID: id, Name: id, Start: time.Now(), DurationMs: ms}
	}
	tr.collect(rec("slowest", 500))
	tr.collect(rec("a", 1))
	tr.collect(rec("b", 2))
	tr.collect(rec("c", 3)) // ring now [c, a→evicted... holds a? ring: c,a,b? capacity 3: slowest evicted
	tr.collect(rec("d", 4)) // evicts a

	got := tr.Snapshot(0)
	ids := make([]string, len(got))
	for i, r := range got {
		ids[i] = r.ID
	}
	// Ring holds the 3 most recent (b, c, d); "slowest" survives via the
	// slowest-N set even though the ring evicted it; "a" is gone.
	want := map[string]bool{"b": true, "c": true, "d": true, "slowest": true}
	if len(got) != len(want) {
		t.Fatalf("snapshot ids = %v, want exactly %v", ids, want)
	}
	for _, id := range ids {
		if !want[id] {
			t.Fatalf("unexpected trace %q in snapshot (all: %v)", id, ids)
		}
	}
	if tr.Total() != 5 {
		t.Fatalf("total = %d, want 5", tr.Total())
	}
}

func TestSnapshotMinFilter(t *testing.T) {
	tr := NewTracer(8, 0)
	tr.collect(TraceRecord{ID: "fast", Start: time.Now(), DurationMs: 0.5})
	tr.collect(TraceRecord{ID: "slow", Start: time.Now(), DurationMs: 50})
	got := tr.Snapshot(10 * time.Millisecond)
	if len(got) != 1 || got[0].ID != "slow" {
		t.Fatalf("snapshot(10ms) = %+v, want only the slow trace", got)
	}
}

func TestTraceSpansAndContext(t *testing.T) {
	tr := NewTracer(4, 0)
	ctx, trace := tr.Start(context.Background(), "GET /x")
	if TraceFrom(ctx) != trace {
		t.Fatal("TraceFrom must return the started trace")
	}
	if trace.ID() == "" {
		t.Fatal("trace must have an ID")
	}
	sp := StartSpan(ctx, "work")
	time.Sleep(time.Millisecond)
	sp.End()
	trace.SetName("GET /renamed")
	trace.Finish(200)

	recs := tr.Snapshot(0)
	if len(recs) != 1 {
		t.Fatalf("want 1 trace, got %d", len(recs))
	}
	r := recs[0]
	if r.Name != "GET /renamed" || r.Status != 200 || r.ID != trace.ID() {
		t.Fatalf("record = %+v", r)
	}
	if len(r.Spans) != 1 || r.Spans[0].Name != "work" || r.Spans[0].DurMs <= 0 {
		t.Fatalf("spans = %+v", r.Spans)
	}
	// Nil-safety: all of these must be no-ops.
	var nilTrace *Trace
	nilTrace.SetName("x")
	nilTrace.Finish(0)
	StartSpan(context.Background(), "no trace").End()
}

// Benchmarks back the CI metrics-overhead smoke: record calls must be
// allocation-free.
func BenchmarkRecordCounter(b *testing.B) {
	c := NewRegistry().NewCounter("bench_total", "help")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkRecordHistogram(b *testing.B) {
	h := NewRegistry().NewDurationHistogram("bench_seconds", "help")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i)&0xfffff + 1000)
	}
}

// BenchmarkRecordHistogramParallel observes from every goroutine at once.
// Each goroutine walks its own value sequence: Observe picks its stripe by
// hashing the value, so goroutines sharing one sequence would land on the
// same stripe at the same time and measure one stripe, not the striping.
func BenchmarkRecordHistogramParallel(b *testing.B) {
	h := NewRegistry().NewDurationHistogram("bench_par_seconds", "help")
	var goroutines atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		base := goroutines.Add(1) << 20
		i := int64(0)
		for pb.Next() {
			h.Observe(base + i&0xfffff + 1000)
			i++
		}
	})
}

func TestRecordCallsDoNotAllocate(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("alloc_total", "help")
	h := r.NewDurationHistogram("alloc_seconds", "help")
	g := r.NewGauge("alloc_gauge", "help")
	if n := testing.AllocsPerRun(200, func() {
		c.Inc()
		h.Observe(12345)
		g.Add(1)
	}); n != 0 {
		t.Fatalf("record calls allocate %v allocs/op, want 0", n)
	}
}

func TestManyRoutesExposition(t *testing.T) {
	// Vec with several children renders each child once, sorted.
	r := NewRegistry()
	v := r.NewCounterVec("routes_total", "help", "route")
	for i := 0; i < 4; i++ {
		v.With(fmt.Sprintf("r%d", i)).Inc()
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(sb.String(), "routes_total{"); got != 4 {
		t.Fatalf("children rendered = %d, want 4\n%s", got, sb.String())
	}
}
