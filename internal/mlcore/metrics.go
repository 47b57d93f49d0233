package mlcore

import (
	"errors"
	"math"
	"sort"
)

// ErrLengthMismatch is returned when prediction and label slices differ in
// length.
var ErrLengthMismatch = errors.New("mlcore: prediction/label length mismatch")

// ConfusionMatrix counts binary-classification outcomes.
type ConfusionMatrix struct {
	TP, FP, TN, FN int
}

// Confusion tabulates predictions against gold labels.
func Confusion(pred, gold []bool) (ConfusionMatrix, error) {
	var m ConfusionMatrix
	if len(pred) != len(gold) {
		return m, ErrLengthMismatch
	}
	for i := range pred {
		switch {
		case pred[i] && gold[i]:
			m.TP++
		case pred[i] && !gold[i]:
			m.FP++
		case !pred[i] && gold[i]:
			m.FN++
		default:
			m.TN++
		}
	}
	return m, nil
}

// Accuracy returns (TP+TN)/total, 0 for the empty matrix.
func (m ConfusionMatrix) Accuracy() float64 {
	total := m.TP + m.FP + m.TN + m.FN
	if total == 0 {
		return 0
	}
	return float64(m.TP+m.TN) / float64(total)
}

// Precision returns TP/(TP+FP), 0 when undefined.
func (m ConfusionMatrix) Precision() float64 {
	if m.TP+m.FP == 0 {
		return 0
	}
	return float64(m.TP) / float64(m.TP+m.FP)
}

// Recall returns TP/(TP+FN), 0 when undefined.
func (m ConfusionMatrix) Recall() float64 {
	if m.TP+m.FN == 0 {
		return 0
	}
	return float64(m.TP) / float64(m.TP+m.FN)
}

// F1 returns the harmonic mean of precision and recall, 0 when undefined.
func (m ConfusionMatrix) F1() float64 {
	p, r := m.Precision(), m.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Mean returns the arithmetic mean, 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance, 0 for fewer than 2 items.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Quantile returns the q-quantile (0 <= q <= 1) using linear interpolation.
func Quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	if q <= 0 {
		return cp[0]
	}
	if q >= 1 {
		return cp[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac
}
