// Package measure holds the arithmetic of the benchmark: window medians and
// percentiles over client samples, run-to-run quartiles, and the parsers
// for what is scraped from a live server (Prometheus text, /proc/<pid>/stat,
// the pprof heap text). Nothing here starts a process or opens a socket.
package measure

import (
	"math"
	"sort"
)

// Sample is one completed operation as the client saw it.
type Sample struct {
	// End is when the reply was fully read, in nanoseconds on the run's
	// monotonic clock.
	End int64
	// Latency is End minus the send time (the intended send time for an
	// open-loop sender), in nanoseconds.
	Latency int64
	// Ops is how many workload operations the reply acknowledged (1 for a
	// read, the batch size for a bulk ingest).
	Ops int32
}

// Window is the reduction of the samples that ended inside one slice of
// the timed section.
type Window struct {
	Start, End int64 // nanoseconds, same clock as Sample.End
	Ops        int64
	Latencies  []float64 // milliseconds, sorted ascending
}

// Rate is the window's completed operations per second.
func (w Window) Rate() float64 {
	if w.End <= w.Start {
		return 0
	}
	return float64(w.Ops) / (float64(w.End-w.Start) / 1e9)
}

// SortByEnd orders samples by completion time, the order both cutters need.
func SortByEnd(s []Sample) {
	sort.Slice(s, func(i, j int) bool { return s[i].End < s[j].End })
}

// CutByTime splits [start, end) into k equal spans and assigns each sample
// (sorted by End) to the span it ended in; samples outside are dropped.
func CutByTime(sorted []Sample, start, end int64, k int) []Window {
	ws := make([]Window, k)
	span := (end - start) / int64(k)
	for i := range ws {
		ws[i].Start = start + int64(i)*span
		ws[i].End = ws[i].Start + span
	}
	for _, s := range sorted {
		if s.End < start || s.End >= ws[k-1].End {
			continue
		}
		i := int((s.End - start) / span)
		ws[i].Ops += int64(s.Ops)
		ws[i].Latencies = append(ws[i].Latencies, float64(s.Latency)/1e6)
	}
	for i := range ws {
		sort.Float64s(ws[i].Latencies)
	}
	return ws
}

// SkipOps drops the leading samples (sorted by End) that make up the first
// skip operations — a fixed-input run's warm-up — and returns the rest with
// the time the last dropped sample ended, which is where the timed section
// starts.
func SkipOps(sorted []Sample, skip int64) (rest []Sample, start int64) {
	var seen int64
	for i, s := range sorted {
		if seen >= skip {
			return sorted[i:], start
		}
		seen += int64(s.Ops)
		start = s.End
	}
	return nil, start
}

// CutByOps splits samples (sorted by End) into k windows of equal operation
// count. The section runs from start to end: a fixed-input run stops its
// clock when the server has drained, which is after the last reply.
func CutByOps(sorted []Sample, start, end int64, k int) []Window {
	var total int64
	for _, s := range sorted {
		total += int64(s.Ops)
	}
	per := total / int64(k)
	ws := make([]Window, 0, k)
	cur := Window{Start: start}
	for _, s := range sorted {
		cur.Ops += int64(s.Ops)
		cur.Latencies = append(cur.Latencies, float64(s.Latency)/1e6)
		cur.End = s.End
		if len(ws) < k-1 && cur.Ops >= per {
			sort.Float64s(cur.Latencies)
			ws = append(ws, cur)
			cur = Window{Start: s.End, End: s.End}
		}
	}
	if end > cur.End {
		cur.End = end
	}
	sort.Float64s(cur.Latencies)
	return append(ws, cur)
}

// Median of xs (mean of the two middle values for an even count); 0 for
// an empty slice. xs is not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Percentile is the nearest-rank p-quantile (0 < p < 1) of an ascending
// slice. ok is false when fewer than ten samples lie beyond it: a tail
// estimated from less is not reported.
func Percentile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n-rank >= 10
}

// Mean of xs; 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// WindowMedian applies f to every window and returns the median of the
// values f reported; windows where f says !ok are left out, and ok is false
// when none remained.
func WindowMedian(ws []Window, f func(Window) (float64, bool)) (float64, bool) {
	var vs []float64
	for _, w := range ws {
		if v, ok := f(w); ok {
			vs = append(vs, v)
		}
	}
	return Median(vs), len(vs) > 0
}

// Quartiles returns what Python's statistics.quantiles(xs, n=4) returns
// (the default "exclusive" method), which is what the driver that accepts
// or rejects this benchmark computes. It needs at least two values.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// Spread is the interquartile range of xs as a share of its median — the
// run-to-run noise figure every bound is judged against.
func Spread(xs []float64) float64 {
	q1, _, q3 := Quartiles(xs)
	m := Median(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}
