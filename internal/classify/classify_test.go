package classify

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mlcore"
)

// synthLinear generates a linearly separable-ish binary dataset in dim
// dimensions: class true has positive mass on even features, class false on
// odd features, plus noise.
func synthLinear(n, dim int, noise float64, seed int64) []Example {
	rng := rand.New(rand.NewSource(seed))
	data := make([]Example, n)
	for i := range data {
		y := rng.Intn(2) == 0
		x := make(mlcore.SparseVector)
		for j := 0; j < dim; j++ {
			base := rng.Float64() * noise
			if (j%2 == 0) == y {
				base += rng.Float64()
			}
			if base > 0.2 {
				x[j] = base
			}
		}
		data[i] = Example{X: x, Y: y}
	}
	return data
}

func accuracy(pred func(mlcore.SparseVector) bool, data []Example) float64 {
	correct := 0
	for _, ex := range data {
		if pred(ex.X) == ex.Y {
			correct++
		}
	}
	return float64(correct) / float64(len(data))
}

func TestTrainLogRegSeparable(t *testing.T) {
	train := synthLinear(400, 10, 0.2, 1)
	test := synthLinear(100, 10, 0.2, 2)
	m, err := TrainLogReg(train, LogRegConfig{Dim: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(m.Predict, test); acc < 0.9 {
		t.Errorf("test accuracy too low: %v", acc)
	}
}

func TestLogRegProbRange(t *testing.T) {
	train := synthLinear(100, 6, 0.3, 4)
	m, err := TrainLogReg(train, LogRegConfig{Dim: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range train {
		p := m.Prob(ex.X)
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("probability out of range: %v", p)
		}
	}
}

func TestLogRegErrors(t *testing.T) {
	if _, err := TrainLogReg(nil, LogRegConfig{Dim: 4}); err != ErrNoData {
		t.Errorf("empty data: %v", err)
	}
	data := []Example{{X: mlcore.SparseVector{5: 1}, Y: true}}
	if _, err := TrainLogReg(data, LogRegConfig{Dim: 4}); err != ErrDimension {
		t.Errorf("out of range feature: %v", err)
	}
	if _, err := TrainLogReg(data, LogRegConfig{Dim: 0}); err != ErrDimension {
		t.Errorf("zero dim: %v", err)
	}
}

func TestLogRegDeterministic(t *testing.T) {
	train := synthLinear(50, 4, 0.2, 6)
	a, _ := TrainLogReg(train, LogRegConfig{Dim: 4, Seed: 7})
	b, _ := TrainLogReg(train, LogRegConfig{Dim: 4, Seed: 7})
	for i := range a.W {
		if a.W[i] != b.W[i] {
			t.Fatal("same seed should give identical weights")
		}
	}
}

func TestSigmoidClamps(t *testing.T) {
	if sigmoid(1000) != 1 || sigmoid(-1000) != 0 {
		t.Error("sigmoid should clamp extremes")
	}
	if s := sigmoid(0); math.Abs(s-0.5) > 1e-12 {
		t.Errorf("sigmoid(0) = %v", s)
	}
}

func TestNaiveBayesBasic(t *testing.T) {
	nb := NewNaiveBayes(1)
	nb.Observe([]string{"vaccine", "trial", "results"}, "science")
	nb.Observe([]string{"vaccine", "study", "peer"}, "science")
	nb.Observe([]string{"shocking", "secret", "miracle"}, "clickbait")
	nb.Observe([]string{"unbelievable", "trick", "secret"}, "clickbait")

	class, p := nb.Predict([]string{"vaccine", "study"})
	if class != "science" {
		t.Errorf("got %q want science", class)
	}
	if p <= 0.5 || p > 1 {
		t.Errorf("probability: %v", p)
	}
	class, _ = nb.Predict([]string{"shocking", "trick"})
	if class != "clickbait" {
		t.Errorf("got %q want clickbait", class)
	}
}

func TestNaiveBayesUntrained(t *testing.T) {
	nb := NewNaiveBayes(0)
	if c, p := nb.Predict([]string{"x"}); c != "" || p != 0 {
		t.Errorf("untrained: %q %v", c, p)
	}
	if nb.Alpha != 1 {
		t.Errorf("alpha default: %v", nb.Alpha)
	}
}

func TestNaiveBayesPriors(t *testing.T) {
	nb := NewNaiveBayes(1)
	for i := 0; i < 9; i++ {
		nb.Observe([]string{"common"}, "big")
	}
	nb.Observe([]string{"common"}, "small")
	// Same token evidence: prior should dominate.
	class, _ := nb.Predict([]string{"common"})
	if class != "big" {
		t.Errorf("prior should win: got %q", class)
	}
}

func TestNaiveBayesClassesAndVocab(t *testing.T) {
	nb := NewNaiveBayes(1)
	nb.Observe([]string{"a", "b"}, "x")
	nb.Observe([]string{"b", "c"}, "y")
	cs := nb.classes
	if len(cs) != 2 || cs[0] != "x" || cs[1] != "y" {
		t.Errorf("classes: %v", cs)
	}
	if len(nb.vocab) != 3 {
		t.Errorf("vocab: %d", len(nb.vocab))
	}
}

func TestLogRegBeatsChanceOnNoisy(t *testing.T) {
	train := synthLinear(600, 20, 0.8, 13)
	test := synthLinear(200, 20, 0.8, 14)
	m, err := TrainLogReg(train, LogRegConfig{Dim: 20, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(m.Predict, test); acc < 0.7 {
		t.Errorf("noisy accuracy: %v", acc)
	}
}
