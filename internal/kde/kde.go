// Package kde implements Gaussian kernel density estimation, used to
// reproduce Figure 5 of the paper: the distribution of social-media
// reactions and the scientific-reference ratio across outlet quality
// classes.
package kde

import (
	"errors"
	"math"
	"sort"
)

// ErrNoData is returned when the sample is empty.
var ErrNoData = errors.New("kde: empty sample")

// KDE is a fitted Gaussian kernel density estimator.
type KDE struct {
	// Bandwidth is the kernel bandwidth (h).
	Bandwidth float64

	sorted []float64
}

// invSqrt2Pi = 1/sqrt(2*pi).
const invSqrt2Pi = 0.3989422804014327

// New fits a KDE with the given bandwidth; bandwidth <= 0 selects
// Silverman's rule of thumb. Returns ErrNoData for empty samples.
func New(sample []float64, bandwidth float64) (*KDE, error) {
	if len(sample) == 0 {
		return nil, ErrNoData
	}
	sorted := append([]float64(nil), sample...)
	sort.Float64s(sorted)
	if bandwidth <= 0 {
		bandwidth = Silverman(sorted)
	}
	return &KDE{Bandwidth: bandwidth, sorted: sorted}, nil
}

// Silverman computes Silverman's rule-of-thumb bandwidth
// h = 0.9 * min(sigma, IQR/1.34) * n^(-1/5), with fallbacks for degenerate
// samples so the bandwidth is always positive.
func Silverman(sample []float64) float64 {
	n := float64(len(sample))
	if n == 0 {
		return 1
	}
	mean := 0.0
	for _, x := range sample {
		mean += x
	}
	mean /= n
	variance := 0.0
	for _, x := range sample {
		d := x - mean
		variance += d * d
	}
	variance /= n
	sigma := math.Sqrt(variance)

	sorted := append([]float64(nil), sample...)
	sort.Float64s(sorted)
	iqr := quantileSorted(sorted, 0.75) - quantileSorted(sorted, 0.25)

	spread := sigma
	if iqr > 0 && iqr/1.34 < spread {
		spread = iqr / 1.34
	}
	if spread <= 0 {
		// Degenerate (constant) sample: fall back to a small positive h
		// proportional to the magnitude, or 1 for the all-zero sample.
		spread = math.Abs(mean) * 0.1
		if spread == 0 {
			spread = 1
		}
	}
	return 0.9 * spread * math.Pow(n, -0.2)
}

// Density returns the estimated density at x.
func (k *KDE) Density(x float64) float64 {
	h := k.Bandwidth
	n := float64(len(k.sorted))
	// Kernels further than 8h contribute ~0; restrict to the window via
	// binary search for large samples.
	lo := sort.SearchFloat64s(k.sorted, x-8*h)
	hi := sort.SearchFloat64s(k.sorted, x+8*h)
	sum := 0.0
	for _, xi := range k.sorted[lo:hi] {
		u := (x - xi) / h
		sum += math.Exp(-0.5*u*u) * invSqrt2Pi
	}
	return sum / (n * h)
}

// Grid holds a density curve evaluated on an even grid.
type Grid struct {
	// X are the grid points.
	X []float64
	// Y are the densities at the grid points.
	Y []float64
}

// Evaluate computes the density on an even grid of points samples over
// [min, max]. points < 2 defaults to 64; an inverted range is swapped.
func (k *KDE) Evaluate(min, max float64, points int) Grid {
	if points < 2 {
		points = 64
	}
	if min > max {
		min, max = max, min
	}
	g := Grid{X: make([]float64, points), Y: make([]float64, points)}
	step := (max - min) / float64(points-1)
	for i := 0; i < points; i++ {
		x := min + float64(i)*step
		g.X[i] = x
		g.Y[i] = k.Density(x)
	}
	return g
}

// quantileSorted returns the q-quantile of a sorted sample via linear
// interpolation.
func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
