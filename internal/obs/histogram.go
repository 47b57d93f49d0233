package obs

import (
	"bytes"
	"math/bits"
	"strconv"
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
// at read time (exposition, Count, Sum).
type Histogram struct {
	minShift uint
	nb       int // finite bucket count; index nb is the +Inf bucket
	scale    float64
	stripes  [histStripes]histStripe
}

const (
	histStripeBits = 2 // Observe picks a stripe by this many top bits of a hash
	histStripes    = 1 << histStripeBits
)

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

func newHistogram(minShift uint, nb int, scale float64) *Histogram {
	h := &Histogram{minShift: minShift, nb: nb, scale: scale}
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
	st := &h.stripes[(uint64(v)*0x9E3779B97F4A7C15)>>(64-histStripeBits)]
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

// HistogramVec is a labeled histogram family. With pre-registers a child
// for one label-value set; hold the returned *Histogram for
// allocation-free hot-path recording.
type HistogramVec = family[Histogram]

// write renders one child's _bucket / _sum / _count series.
func (h *Histogram) write(b *bytes.Buffer, name, labels string) {
	counts := h.bucketCounts()
	var cum uint64
	for i, c := range counts {
		cum += c
		le := "+Inf"
		if i < h.nb {
			le = formatFloat(float64(h.bound(i)) * h.scale)
		}
		bl := `le="` + le + `"`
		if labels != "" {
			bl = labels + "," + bl
		}
		sample(b, name+"_bucket", bl, strconv.FormatUint(cum, 10))
	}
	sample(b, name+"_sum", labels, formatFloat(float64(h.Sum())*h.scale))
	sample(b, name+"_count", labels, strconv.FormatUint(cum, 10))
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

func (r *Registry) newHistogramVec(name, help string, minShift uint, nb int, scale float64, labelNames ...string) *HistogramVec {
	return registerFamily(r, name, help, "histogram", labelNames,
		func() *Histogram { return newHistogram(minShift, nb, scale) }, (*Histogram).write)
}
