package measure

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedianAndMean(t *testing.T) {
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if Median(nil) != 0 || Mean(nil) != 0 {
		t.Error("empty input must give 0")
	}
	if got := Mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, ok := Percentile(xs, 0.99)
	if v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %v ok=%v, want 990 true", v, ok)
	}
	// 999 samples leave nine beyond the 99th percentile's rank (990).
	if v, ok := Percentile(xs[:999], 0.99); v != 990 || ok {
		t.Errorf("p99 of 1..999 = %v ok=%v, want 990 false", v, ok)
	}
	if v, ok := Percentile(xs[:21], 0.5); v != 11 || !ok {
		t.Errorf("p50 of 1..21 = %v ok=%v, want 11 true", v, ok)
	}
	if _, ok := Percentile(nil, 0.5); ok {
		t.Error("empty percentile must not be ok")
	}
}

// TestQuartilesMatchPython pins Quartiles to statistics.quantiles(xs, n=4),
// the function the accepting driver uses. Expected values were computed with
// Python 3.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 3, 7, 1}, 1.5, 5, 9.25},
		{[]float64{2, 4}, 1.5, 3, 4.5},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{3.1, 2.9, 3.0, 3.3, 2.8, 3.05, 3.2, 2.95, 3.15, 3.0}, 2.9375, 3.025, 3.1625},
	}
	for _, c := range cases {
		q1, q2, q3 := Quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("Spread = %v, want 1 (IQR 5.5 over median 5.5)", got)
	}
}

func TestCutByTime(t *testing.T) {
	var s []Sample
	// One sample per millisecond for a second, each taking its index in µs.
	for i := 0; i < 1000; i++ {
		s = append(s, Sample{End: int64(i) * 1e6, Latency: int64(i) * 1e3, Ops: 2})
	}
	ws := CutByTime(s, 100e6, 600e6, 5)
	if len(ws) != 5 {
		t.Fatalf("got %d windows", len(ws))
	}
	for i, w := range ws {
		if w.Ops != 200 || len(w.Latencies) != 100 {
			t.Errorf("window %d: ops=%d samples=%d, want 200 and 100", i, w.Ops, len(w.Latencies))
		}
		if !near(w.Rate(), 2000) {
			t.Errorf("window %d: rate %v, want 2000/s", i, w.Rate())
		}
		if want := float64(100+100*i) / 1e3; w.Latencies[0] != want {
			t.Errorf("window %d: first latency %v ms, want %v", i, w.Latencies[0], want)
		}
	}
	p50, ok := WindowMedian(ws, func(w Window) (float64, bool) { return Percentile(w.Latencies, 0.5) })
	if !ok || !near(p50, 0.349) {
		t.Errorf("median of window p50s = %v ok=%v, want 0.349 ms", p50, ok)
	}
	if _, ok := WindowMedian(ws, func(Window) (float64, bool) { return 0, false }); ok {
		t.Error("no window reporting must not be ok")
	}
}

func TestSkipAndCutByOps(t *testing.T) {
	var s []Sample
	for i := 1; i <= 110; i++ {
		s = append(s, Sample{End: int64(i) * 10, Latency: 5e6, Ops: 64})
	}
	rest, start := SkipOps(s, 10*64)
	if len(rest) != 100 || start != 100 {
		t.Fatalf("SkipOps left %d samples from %d, want 100 from 100", len(rest), start)
	}
	// The clock stops 50 after the last reply (the server draining).
	ws := CutByOps(rest, start, 1150, 5)
	if len(ws) != 5 {
		t.Fatalf("got %d windows", len(ws))
	}
	var ops int64
	for i, w := range ws {
		ops += w.Ops
		if w.Ops != 20*64 {
			t.Errorf("window %d holds %d ops, want %d", i, w.Ops, 20*64)
		}
		if i > 0 && w.Start != ws[i-1].End {
			t.Errorf("window %d starts at %d, previous ended %d", i, w.Start, ws[i-1].End)
		}
	}
	if ops != 100*64 {
		t.Errorf("windows hold %d ops, want %d", ops, 100*64)
	}
	if ws[0].Start != 100 || ws[4].End != 1150 {
		t.Errorf("section runs %d..%d, want 100..1150", ws[0].Start, ws[4].End)
	}
}

const promText = `# HELP scilens_http_requests_total HTTP requests served, by matched route and status class.
# TYPE scilens_http_requests_total counter
scilens_http_requests_total{route="GET /api/assess",class="2xx"} 120
scilens_http_requests_total{route="GET /api/assess",class="4xx"} 3
scilens_http_requests_total{route="POST /api/ingest",class="2xx"} 7
# TYPE scilens_wal_append_seconds histogram
scilens_wal_append_seconds_bucket{le="1.024e-06"} 0
scilens_wal_append_seconds_bucket{le="2.048e-06"} 10
scilens_wal_append_seconds_bucket{le="4.096e-06"} 30
scilens_wal_append_seconds_bucket{le="+Inf"} 40
scilens_wal_append_seconds_sum 0.00012
scilens_wal_append_seconds_count 40
scilens_pipeline_evaluate_seconds_sum{shard="0"} 1.5
scilens_pipeline_evaluate_seconds_count{shard="0"} 3
scilens_pipeline_evaluate_seconds_sum{shard="1"} 0.5
scilens_pipeline_evaluate_seconds_count{shard="1"} 1
go_goroutines 17
`

func TestParsePromAndSums(t *testing.T) {
	s, err := ParseProm([]byte(promText))
	if err != nil {
		t.Fatal(err)
	}
	if got := s[`scilens_http_requests_total{route="GET /api/assess",class="4xx"}`]; got != 3 {
		t.Errorf("label value with a space: got %v, want 3", got)
	}
	if got := s.Sum("scilens_http_requests_total"); got != 130 {
		t.Errorf("family sum = %v, want 130", got)
	}
	if got := s.Sum("scilens_http_requests_total", `class="2xx"`); got != 127 {
		t.Errorf("2xx sum = %v, want 127", got)
	}
	if got := s.Sum("scilens_http_requests_total", `route="GET /api/assess"`, `class="2xx"`); got != 120 {
		t.Errorf("route+class sum = %v, want 120", got)
	}
	if got := s.Sum("go_goroutines"); got != 17 {
		t.Errorf("unlabelled gauge = %v, want 17", got)
	}
	// A family name that is a prefix of another must not match it.
	if got := s.Sum("scilens_wal_append_seconds"); got != 0 {
		t.Errorf("bare histogram name matched %v", got)
	}
	if got := s.HistMean("scilens_pipeline_evaluate_seconds"); !near(got, 0.5) {
		t.Errorf("mean folded over shards = %v, want 0.5", got)
	}
	if got := s.HistMean("scilens_checkpoint_seconds"); got != 0 {
		t.Errorf("mean of an absent histogram = %v, want 0", got)
	}
	if _, err := ParseProm([]byte("scilens_broken{a=\"b c\"}\n")); err == nil {
		t.Error("a sample without a value must be an error")
	}
}

func TestDeltaAndHistQuantile(t *testing.T) {
	before, err := ParseProm([]byte(promText))
	if err != nil {
		t.Fatal(err)
	}
	after := Series{}
	for k, v := range before {
		after[k] = v
	}
	after[`scilens_wal_append_seconds_bucket{le="2.048e-06"}`] += 10
	after[`scilens_wal_append_seconds_bucket{le="4.096e-06"}`] += 40
	after[`scilens_wal_append_seconds_bucket{le="+Inf"}`] += 40
	after["scilens_wal_append_seconds_sum"] += 0.00016
	after["scilens_wal_append_seconds_count"] += 40
	after[`scilens_new_total{x="1"}`] = 5 // a label set first used in between
	d := Delta(before, after)
	if got := d.HistMean("scilens_wal_append_seconds"); !near(got, 4e-6) {
		t.Errorf("delta mean = %v, want 4e-6", got)
	}
	if got := d.Sum("scilens_new_total"); got != 5 {
		t.Errorf("new series delta = %v, want 5", got)
	}
	if got := d.Sum("go_goroutines"); got != 0 {
		t.Errorf("unchanged gauge delta = %v, want 0", got)
	}
	// Delta buckets: 10 up to 2.048µs, 40 up to 4.096µs, 40 in all. The
	// median is rank 20: a third of the way through the second bucket.
	q, ok := d.HistQuantile(0.5, "scilens_wal_append_seconds")
	if want := 2.048e-6 + (4.096e-6-2.048e-6)/3; !ok || !near(q, want) {
		t.Errorf("delta p50 = %v ok=%v, want %v", q, ok, want)
	}
	if _, ok := d.HistQuantile(0.5, "scilens_checkpoint_seconds"); ok {
		t.Error("quantile of an absent histogram must not be ok")
	}
	// Observations beyond the last finite bucket report that bucket's bound.
	if q, ok := before.HistQuantile(0.99, "scilens_wal_append_seconds"); !ok || q != 4.096e-6 {
		t.Errorf("p99 in the +Inf bucket = %v ok=%v, want 4.096e-06", q, ok)
	}
}

func TestProcParsers(t *testing.T) {
	// A command name with spaces and a parenthesis, as /proc allows.
	stat := []byte("4242 (scilens server) x) S 1 4242 4242 0 -1 4194560 1500 0 0 0 731 269 0 0 20 0 9 0 123456 1234567890 2500 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n")
	ticks, err := ProcCPUTicks(stat)
	if err != nil || ticks != 1000 {
		t.Errorf("ticks = %v err=%v, want 1000 (utime 731 + stime 269)", ticks, err)
	}
	if _, err := ProcCPUTicks([]byte("garbage")); err == nil {
		t.Error("malformed stat must be an error")
	}
	status := []byte("Name:\tscilens-server\nVmPeak:\t  900000 kB\nVmHWM:\t  117604 kB\nVmRSS:\t  100000 kB\n")
	kb, err := ProcPeakRSSKB(status)
	if err != nil || kb != 117604 {
		t.Errorf("VmHWM = %v err=%v, want 117604", kb, err)
	}
	if _, err := ProcPeakRSSKB([]byte("Name:\tx\n")); err == nil {
		t.Error("status without VmHWM must be an error")
	}
}

func TestParseMemStats(t *testing.T) {
	profile := []byte(`heap profile: 3: 1474560 [21: 9000000] @ heap/1048576
2: 1474560 [2: 1474560] @ 0x6d4f11 0x6d65a5
#	0x6d4f10	repro/internal/stream.(*partition).publish+0x1f0	/x/stream.go:130

# runtime.MemStats
# Alloc = 36239144
# TotalAlloc = 366797520
# Sys = 104587544
# Mallocs = 2142460
# Frees = 1986313
# HeapAlloc = 36239144
# HeapSys = 95879168
# PauseNs = [92999 14171 0 0]
# NumGC = 21
# NumForcedGC = 1
`)
	m, err := ParseMemStats(profile)
	if err != nil {
		t.Fatal(err)
	}
	want := MemStats{HeapAlloc: 36239144, TotalAlloc: 366797520, Mallocs: 2142460}
	if m != want {
		t.Errorf("got %+v, want %+v", m, want)
	}
	if _, err := ParseMemStats([]byte("# runtime.MemStats\n# HeapAlloc = 1\n")); err == nil {
		t.Error("a trailer missing fields must be an error")
	}
}
