package mlcore

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// cosine is CosineAt with both operands' index sets and norms computed
// here, as a caller without cached values computes them.
func cosine(a, b SparseVector) float64 {
	ai, bi := a.Indices(), b.Indices()
	return CosineAt(a, ai, a.NormAt(ai), b, bi, b.NormAt(bi))
}

func TestSparseDot(t *testing.T) {
	a := SparseVector{0: 1, 2: 3}
	b := SparseVector{0: 2, 1: 5, 2: 4}
	if got := a.DotAt(a.Indices(), b); !almostEq(got, 14) {
		t.Errorf("dot: got %v want 14", got)
	}
	if got := b.DotAt(b.Indices(), a); !almostEq(got, 14) {
		t.Errorf("dot commutes: got %v", got)
	}
	if got := a.DotAt(a.Indices(), SparseVector{}); got != 0 {
		t.Errorf("dot with empty: %v", got)
	}
}

func TestSparseDotDense(t *testing.T) {
	v := SparseVector{0: 1, 3: 2, 99: 5}
	w := []float64{10, 0, 0, 4}
	if got := v.DotDense(w); !almostEq(got, 18) {
		t.Errorf("got %v want 18 (out-of-range index ignored)", got)
	}
}

func TestNormAndNormalize(t *testing.T) {
	v := SparseVector{0: 3, 1: 4}
	if got := v.Norm(); !almostEq(got, 5) {
		t.Errorf("norm: got %v", got)
	}
	v.L2Normalize()
	if got := v.Norm(); !almostEq(got, 1) {
		t.Errorf("normalized norm: got %v", got)
	}
	zero := SparseVector{}
	zero.L2Normalize() // must not panic or NaN
	if zero.Norm() != 0 {
		t.Error("zero vector should stay zero")
	}
}

func TestScaleAdd(t *testing.T) {
	v := SparseVector{0: 1}
	v.Add(SparseVector{0: 2, 1: 3}, 2)
	if !almostEq(v[0], 5) || !almostEq(v[1], 6) {
		t.Errorf("add: %v", v)
	}
	v.Scale(0.5)
	if !almostEq(v[0], 2.5) {
		t.Errorf("scale: %v", v)
	}
}

func TestCosine(t *testing.T) {
	a := SparseVector{0: 1, 1: 0}
	b := SparseVector{0: 2, 1: 0}
	if got := cosine(a, b); !almostEq(got, 1) {
		t.Errorf("parallel: %v", got)
	}
	c := SparseVector{1: 1}
	if got := cosine(a, c); !almostEq(got, 0) {
		t.Errorf("orthogonal: %v", got)
	}
	if got := cosine(a, SparseVector{}); got != 0 {
		t.Errorf("zero: %v", got)
	}
}

func TestCosineBoundsProperty(t *testing.T) {
	// Restrict magnitudes so norms cannot overflow; within that domain the
	// similarity must stay in [-1, 1] and never be NaN.
	clamp := func(x float64) float64 {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0
		}
		return math.Mod(x, 1e6)
	}
	check := func(xs, ys []float64) bool {
		a, b := SparseVector{}, SparseVector{}
		for i, x := range xs {
			a[i] = clamp(x)
		}
		for i, y := range ys {
			b[i] = clamp(y)
		}
		c := cosine(a, b)
		return !math.IsNaN(c) && c >= -1.0000001 && c <= 1.0000001
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestClone(t *testing.T) {
	v := SparseVector{0: 1}
	w := v.Clone()
	w[0] = 99
	if v[0] != 1 {
		t.Error("clone aliases original")
	}
}

func TestTopK(t *testing.T) {
	v := SparseVector{0: 1, 1: 5, 2: 3, 3: 5}
	got := v.TopK(3)
	// Ties (1 and 3, both 5) break on index.
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 2 {
		t.Errorf("topk: %v", got)
	}
	if got := v.TopK(10); len(got) != 4 {
		t.Errorf("topk overflow: %v", got)
	}
}

func TestVectorString(t *testing.T) {
	v := SparseVector{2: 1, 0: 0.5}
	if got := v.String(); got != "{0:0.5 2:1}" {
		t.Errorf("string: %q", got)
	}
}
