package obs

import (
	"bytes"
	"math/bits"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Histogram is a lock-striped log-bucketed histogram. Observations are
// raw int64 units (nanoseconds for duration histograms, counts for size
// histograms); bucket upper bounds are powers of two starting at
// 1<<minShift, and exposition scales raw units by scale (1e-9 turns
// nanoseconds into the _seconds families Prometheus conventions expect).
//
// Observe is allocation-free: it picks one of a small fixed set of
// stripes by hashing the observed value (spreading concurrent writers
// across cache lines) and performs three atomic adds. Stripes are merged
// at read time (exposition, Quantile, Count, Sum).
type Histogram struct {
	labels   string
	minShift uint
	nb       int // finite bucket count; index nb is the +Inf bucket
	scale    float64
	stripes  [histStripes]histStripe
}

const histStripes = 4 // power of two

type histStripe struct {
	count   atomic.Uint64
	sum     atomic.Int64
	buckets []atomic.Uint64 // nb+1 slots; last is +Inf
	// pad to keep adjacent stripes off one cache line.
	_ [4]uint64
}

// Duration histograms span 1.024µs .. ~34.4s in 26 powers of two; the
// +Inf bucket catches anything slower.
const (
	durMinShift = 10 // 1<<10 ns = 1.024µs
	durBuckets  = 26
)

// Size histograms (e.g. group-commit batch sizes) span 1 .. 32768.
const (
	sizeMinShift = 0
	sizeBuckets  = 16
)

func newHistogram(labels string, minShift uint, nb int, scale float64) *Histogram {
	h := &Histogram{labels: labels, minShift: minShift, nb: nb, scale: scale}
	for i := range h.stripes {
		h.stripes[i].buckets = make([]atomic.Uint64, nb+1)
	}
	return h
}

// Observe records one raw observation. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	idx := 0
	if uv := uint64(v); uv > 1<<h.minShift {
		idx = bits.Len64(uv-1) - int(h.minShift)
		if idx > h.nb {
			idx = h.nb
		}
	}
	st := &h.stripes[(uint64(v)*0x9E3779B97F4A7C15)>>(64-2)]
	st.buckets[idx].Add(1)
	st.count.Add(1)
	st.sum.Add(v)
}

// ObserveDuration records a duration into a nanosecond-unit histogram.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.stripes {
		n += h.stripes[i].count.Load()
	}
	return n
}

// Sum returns the raw (unscaled) sum of observations.
func (h *Histogram) Sum() int64 {
	var s int64
	for i := range h.stripes {
		s += h.stripes[i].sum.Load()
	}
	return s
}

// bucketCounts merges the stripes into per-bucket counts (nb+1 slots).
func (h *Histogram) bucketCounts() []uint64 {
	counts := make([]uint64, h.nb+1)
	for i := range h.stripes {
		for j := range h.stripes[i].buckets {
			counts[j] += h.stripes[i].buckets[j].Load()
		}
	}
	return counts
}

// bound returns the raw upper bound of finite bucket i.
func (h *Histogram) bound(i int) int64 { return 1 << (h.minShift + uint(i)) }

// Quantile extracts an approximate quantile (0 < q < 1) in scaled units
// (seconds for duration histograms), interpolating linearly inside the
// selected bucket. It returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	counts := h.bucketCounts()
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank > next {
			cum = next
			continue
		}
		var lo int64
		if i > 0 {
			lo = h.bound(i - 1)
		}
		hi := h.bound(i)
		if i == h.nb { // +Inf bucket: report its lower bound
			return float64(h.bound(h.nb-1)) * h.scale
		}
		frac := (rank - cum) / float64(c)
		return (float64(lo) + frac*float64(hi-lo)) * h.scale
	}
	return float64(h.bound(h.nb-1)) * h.scale
}

// HistogramVec is a labeled histogram family. With pre-registers a child
// for one label-value set; hold the returned *Histogram for
// allocation-free hot-path recording.
type HistogramVec struct {
	name, help string
	labelNames []string
	minShift   uint
	nb         int
	scale      float64

	mu       sync.Mutex
	children map[string]*Histogram
}

func (v *HistogramVec) metricName() string { return v.name }

// With returns the child histogram for the given label values, creating
// it on first use. Call at setup time, not on the hot path.
func (v *HistogramVec) With(values ...string) *Histogram {
	labels := renderLabels(v.labelNames, values)
	v.mu.Lock()
	defer v.mu.Unlock()
	h, ok := v.children[labels]
	if !ok {
		h = newHistogram(labels, v.minShift, v.nb, v.scale)
		v.children[labels] = h
	}
	return h
}

func (v *HistogramVec) write(b *bytes.Buffer) {
	header(b, v.name, v.help, "histogram")
	v.mu.Lock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	hs := make([]*Histogram, 0, len(keys))
	sort.Strings(keys)
	for _, k := range keys {
		hs = append(hs, v.children[k])
	}
	v.mu.Unlock()
	for _, h := range hs {
		h.write(b, v.name)
	}
}

// write renders one child's _bucket / _sum / _count series.
func (h *Histogram) write(b *bytes.Buffer, name string) {
	counts := h.bucketCounts()
	var cum uint64
	for i, c := range counts {
		cum += c
		le := "+Inf"
		if i < h.nb {
			le = formatFloat(float64(h.bound(i)) * h.scale)
		}
		labels := `le="` + le + `"`
		if h.labels != "" {
			labels = h.labels + "," + labels
		}
		sample(b, name+"_bucket", labels, strconv.FormatUint(cum, 10))
	}
	sample(b, name+"_sum", h.labels, formatFloat(float64(h.Sum())*h.scale))
	sample(b, name+"_count", h.labels, strconv.FormatUint(cum, 10))
}

// NewDurationHistogramVec registers (or returns) a labeled latency
// histogram family.
func (r *Registry) NewDurationHistogramVec(name, help string, labelNames ...string) *HistogramVec {
	return r.newHistogramVec(name, help, durMinShift, durBuckets, 1e-9, labelNames...)
}

// NewDurationHistogram registers (or returns) an unlabeled latency
// histogram.
func (r *Registry) NewDurationHistogram(name, help string) *Histogram {
	return r.NewDurationHistogramVec(name, help).With()
}

// NewSizeHistogramVec registers (or returns) a labeled size histogram
// family.
func (r *Registry) NewSizeHistogramVec(name, help string, labelNames ...string) *HistogramVec {
	return r.newHistogramVec(name, help, sizeMinShift, sizeBuckets, 1, labelNames...)
}

// NewSizeHistogram registers (or returns) an unlabeled size histogram.
func (r *Registry) NewSizeHistogram(name, help string) *Histogram {
	return r.newHistogramVec(name, help, sizeMinShift, sizeBuckets, 1).With()
}

func (r *Registry) newHistogramVec(name, help string, minShift uint, nb int, scale float64, names ...string) *HistogramVec {
	c := r.register(name, func() collector {
		return &HistogramVec{
			name: name, help: help, labelNames: names,
			minShift: minShift, nb: nb, scale: scale,
			children: map[string]*Histogram{},
		}
	})
	v, ok := c.(*HistogramVec)
	if !ok {
		panic("obs: metric " + name + " already registered with a different type")
	}
	return v
}
