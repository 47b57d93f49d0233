package mlcore

import "testing"

func TestMeanVarianceStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if !almostEq(Mean(xs), 5) {
		t.Errorf("mean: %v", Mean(xs))
	}
	if !almostEq(Variance(xs), 4) {
		t.Errorf("variance: %v", Variance(xs))
	}
	if !almostEq(StdDev(xs), 2) {
		t.Errorf("std: %v", StdDev(xs))
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Error("degenerate cases")
	}
}

func TestMedianQuantile(t *testing.T) {
	if !almostEq(Quantile([]float64{3, 1, 2}, 0.5), 2) {
		t.Error("odd median")
	}
	if !almostEq(Quantile([]float64{4, 1, 2, 3}, 0.5), 2.5) {
		t.Error("even median")
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("empty median")
	}
	xs := []float64{1, 2, 3, 4, 5}
	if !almostEq(Quantile(xs, 0), 1) || !almostEq(Quantile(xs, 1), 5) {
		t.Error("quantile extremes")
	}
	if !almostEq(Quantile(xs, 0.5), 3) {
		t.Errorf("q50: %v", Quantile(xs, 0.5))
	}
	if !almostEq(Quantile(xs, 0.25), 2) {
		t.Errorf("q25: %v", Quantile(xs, 0.25))
	}
	// Input must not be mutated.
	ys := []float64{3, 1, 2}
	Quantile(ys, 0.5)
	if ys[0] != 3 {
		t.Error("median mutated input")
	}
}
