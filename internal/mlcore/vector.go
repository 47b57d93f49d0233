// Package mlcore provides the machine-learning primitives shared by the
// SciLens model zoo: sparse vectors, a TF-IDF vectoriser, feature hashing,
// summary statistics and confusion-matrix metrics.
package mlcore

import (
	"fmt"
	"math"
	"sort"
)

// SparseVector is a feature-index → value map. The zero value is an empty
// (all-zero) vector.
type SparseVector map[int]float64

// sortedIndices returns the vector's indices in ascending order. The dot
// products below sum in this order: Go randomises map iteration, and
// summing floats in a random order makes the low bits of a model score
// differ from call to call — which breaks the platform invariant that
// re-evaluating the same document under the same models is bit-identical
// (batch re-indexing vs. the real-time path).
func (v SparseVector) sortedIndices() []int {
	idx := make([]int, 0, len(v))
	for i := range v {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	return idx
}

// Indices returns the vector's indices in ascending order. Training loops
// that evaluate the same vector every epoch should call this once and use
// DotDenseAt, instead of paying DotDense's per-call collect-and-sort.
func (v SparseVector) Indices() []int { return v.sortedIndices() }

// DotDenseAt is DotDense with the iteration order supplied by the caller
// (typically a cached Indices() result); indices beyond len(w) contribute
// zero.
func (v SparseVector) DotDenseAt(idx []int, w []float64) float64 {
	sum := 0.0
	for _, i := range idx {
		if i >= 0 && i < len(w) {
			sum += v[i] * w[i]
		}
	}
	return sum
}

// DotAt is Dot with the iteration order over v supplied by the caller
// (typically a cached Indices() result).
func (v SparseVector) DotAt(idx []int, w SparseVector) float64 {
	sum := 0.0
	for _, i := range idx {
		if y, ok := w[i]; ok {
			sum += v[i] * y
		}
	}
	return sum
}

// NormAt is Norm with the iteration order supplied by the caller
// (typically a cached Indices() result).
func (v SparseVector) NormAt(idx []int) float64 {
	sum := 0.0
	for _, i := range idx {
		sum += v[i] * v[i]
	}
	return math.Sqrt(sum)
}

// DotDense returns the dot product of the sparse vector with a dense weight
// slice, summed in ascending index order for run-to-run determinism;
// indices beyond len(w) contribute zero.
func (v SparseVector) DotDense(w []float64) float64 {
	sum := 0.0
	for _, i := range v.sortedIndices() {
		if i >= 0 && i < len(w) {
			sum += v[i] * w[i]
		}
	}
	return sum
}

// Norm returns the Euclidean norm, summed in ascending index order for
// run-to-run determinism.
func (v SparseVector) Norm() float64 {
	sum := 0.0
	for _, i := range v.sortedIndices() {
		sum += v[i] * v[i]
	}
	return math.Sqrt(sum)
}

// Scale multiplies every component in place and returns the receiver.
func (v SparseVector) Scale(k float64) SparseVector {
	for i := range v {
		v[i] *= k
	}
	return v
}

// Add accumulates w into v (v += k*w) and returns v.
func (v SparseVector) Add(w SparseVector, k float64) SparseVector {
	for i, x := range w {
		v[i] += k * x
	}
	return v
}

// L2Normalize scales v to unit norm in place (no-op for the zero vector)
// and returns v.
func (v SparseVector) L2Normalize() SparseVector {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// CosineAt returns the cosine similarity of two sparse vectors, 0 when
// either is zero, from both operands' sorted index sets and norms as the
// caller supplies them (cached Indices()/NormAt results).
func CosineAt(a SparseVector, aIdx []int, aNorm float64, b SparseVector, bIdx []int, bNorm float64) float64 {
	if aNorm == 0 || bNorm == 0 {
		return 0
	}
	if len(bIdx) < len(aIdx) {
		a, b, aIdx = b, a, bIdx
	}
	return a.DotAt(aIdx, b) / (aNorm * bNorm)
}

// Clone returns a deep copy of the vector.
func (v SparseVector) Clone() SparseVector {
	out := make(SparseVector, len(v))
	for i, x := range v {
		out[i] = x
	}
	return out
}

// TopK returns the k indices with the largest values, descending. Ties
// break on index for determinism.
func (v SparseVector) TopK(k int) []int {
	type pair struct {
		idx int
		val float64
	}
	pairs := make([]pair, 0, len(v))
	for i, x := range v {
		pairs = append(pairs, pair{i, x})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].val != pairs[j].val {
			return pairs[i].val > pairs[j].val
		}
		return pairs[i].idx < pairs[j].idx
	})
	if k > len(pairs) {
		k = len(pairs)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = pairs[i].idx
	}
	return out
}

// String renders the vector with indices sorted, for stable test output.
func (v SparseVector) String() string {
	idx := make([]int, 0, len(v))
	for i := range v {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	s := "{"
	for n, i := range idx {
		if n > 0 {
			s += " "
		}
		s += fmt.Sprintf("%d:%.4g", i, v[i])
	}
	return s + "}"
}
