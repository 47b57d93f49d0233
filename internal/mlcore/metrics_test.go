package mlcore

import "testing"

func TestConfusionAndDerivedMetrics(t *testing.T) {
	pred := []bool{true, true, false, false, true}
	gold := []bool{true, false, false, true, true}
	m, err := Confusion(pred, gold)
	if err != nil {
		t.Fatal(err)
	}
	if m.TP != 2 || m.FP != 1 || m.TN != 1 || m.FN != 1 {
		t.Fatalf("confusion: %+v", m)
	}
	if !almostEq(m.Accuracy(), 0.6) {
		t.Errorf("accuracy: %v", m.Accuracy())
	}
	if !almostEq(m.Precision(), 2.0/3) {
		t.Errorf("precision: %v", m.Precision())
	}
	if !almostEq(m.Recall(), 2.0/3) {
		t.Errorf("recall: %v", m.Recall())
	}
	if !almostEq(m.F1(), 2.0/3) {
		t.Errorf("f1: %v", m.F1())
	}
}

func TestConfusionLengthMismatch(t *testing.T) {
	if _, err := Confusion([]bool{true}, nil); err != ErrLengthMismatch {
		t.Errorf("want ErrLengthMismatch, got %v", err)
	}
}

func TestMetricsUndefinedCases(t *testing.T) {
	var m ConfusionMatrix
	if m.Accuracy() != 0 || m.Precision() != 0 || m.Recall() != 0 || m.F1() != 0 {
		t.Error("empty matrix metrics should be 0")
	}
}

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
