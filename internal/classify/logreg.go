// Package classify implements the supervised classifiers used by the
// SciLens indicator models: L2-regularised logistic regression trained by
// SGD (the clickbait model) and multinomial naive Bayes (the stance
// model). The regression reads mlcore.SparseVector features, so any
// vectoriser in the project can feed it.
package classify

import (
	"errors"
	"math"
	"math/rand"

	"repro/internal/mlcore"
)

// ErrNoData is returned when a training set is empty.
var ErrNoData = errors.New("classify: empty training set")

// ErrDimension is returned when a feature index falls outside the model's
// weight space.
var ErrDimension = errors.New("classify: feature index out of range")

// Example is one labelled training instance.
type Example struct {
	// X is the sparse feature vector.
	X mlcore.SparseVector
	// Y is the binary label.
	Y bool
}

// LogRegConfig configures logistic-regression training.
type LogRegConfig struct {
	// Dim is the feature-space dimensionality (max index + 1).
	Dim int
	// Epochs is the number of SGD passes (default 20).
	Epochs int
	// LearningRate is the initial step size (default 0.1); it decays as
	// lr/(1+t*decay).
	LearningRate float64
	// Decay is the learning-rate decay constant (default 0.01).
	Decay float64
	// L2 is the L2 regularisation strength (default 1e-4).
	L2 float64
	// Seed seeds the shuffling RNG.
	Seed int64
}

func (c *LogRegConfig) setDefaults() {
	if c.Epochs <= 0 {
		c.Epochs = 20
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.1
	}
	if c.Decay <= 0 {
		c.Decay = 0.01
	}
	if c.L2 < 0 {
		c.L2 = 1e-4
	}
}

// LogReg is a trained binary logistic-regression model.
type LogReg struct {
	// W holds per-feature weights.
	W []float64
	// B is the bias term.
	B float64
}

// TrainLogReg fits a logistic-regression model with SGD. Feature indices
// must lie in [0, cfg.Dim).
func TrainLogReg(data []Example, cfg LogRegConfig) (*LogReg, error) {
	if len(data) == 0 {
		return nil, ErrNoData
	}
	cfg.setDefaults()
	if cfg.Dim <= 0 {
		return nil, ErrDimension
	}
	for _, ex := range data {
		for i := range ex.X {
			if i < 0 || i >= cfg.Dim {
				return nil, ErrDimension
			}
		}
	}
	m := &LogReg{W: make([]float64, cfg.Dim)}
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := make([]int, len(data))
	for i := range order {
		order[i] = i
	}
	// Deterministic dot products need a sorted iteration order; sort each
	// example's index set once instead of on every epoch's DotDense.
	sortedIdx := make([][]int, len(data))
	for i := range data {
		sortedIdx[i] = data[i].X.Indices()
	}
	t := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, idx := range order {
			ex := data[idx]
			lr := cfg.LearningRate / (1 + float64(t)*cfg.Decay)
			t++
			p := sigmoid(ex.X.DotDenseAt(sortedIdx[idx], m.W) + m.B)
			y := 0.0
			if ex.Y {
				y = 1.0
			}
			g := p - y // dLoss/dz
			for i, x := range ex.X {
				m.W[i] -= lr * (g*x + cfg.L2*m.W[i])
			}
			m.B -= lr * g
		}
	}
	return m, nil
}

// Prob returns P(y=1 | x).
func (m *LogReg) Prob(x mlcore.SparseVector) float64 {
	return sigmoid(x.DotDense(m.W) + m.B)
}

// Predict returns the hard label at threshold 0.5.
func (m *LogReg) Predict(x mlcore.SparseVector) bool { return m.Prob(x) >= 0.5 }

func sigmoid(z float64) float64 {
	// Clamp to avoid overflow in Exp for extreme scores.
	if z > 35 {
		return 1
	}
	if z < -35 {
		return 0
	}
	return 1 / (1 + math.Exp(-z))
}
