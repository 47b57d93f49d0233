package kde

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func normalSample(n int, mean, sd float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()*sd + mean
	}
	return out
}

// scott is Scott's bandwidth h = sigma * n^(-1/5), with Silverman's
// degenerate-sample fallback: the reference Silverman is compared with.
func scott(sample []float64) float64 {
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
	sigma := math.Sqrt(variance / n)
	if sigma <= 0 {
		sigma = math.Abs(mean) * 0.1
		if sigma == 0 {
			sigma = 1
		}
	}
	return sigma * math.Pow(n, -0.2)
}

// integrate estimates the integral of k's density over [min, max] with the
// trapezoid rule on the given number of grid points.
func integrate(k *KDE, min, max float64, points int) float64 {
	g := k.Evaluate(min, max, points)
	total := 0.0
	for i := 1; i < len(g.X); i++ {
		total += (g.Y[i] + g.Y[i-1]) / 2 * (g.X[i] - g.X[i-1])
	}
	return total
}

// support returns k's sample range extended by 3 bandwidths each side,
// where the density has all but vanished.
func support(k *KDE) (min, max float64) {
	pad := 3 * k.Bandwidth
	return k.sorted[0] - pad, k.sorted[len(k.sorted)-1] + pad
}

// mode returns the grid point with the highest density over k's support.
func mode(k *KDE, points int) float64 {
	min, max := support(k)
	g := k.Evaluate(min, max, points)
	best := 0
	for i, y := range g.Y {
		if y > g.Y[best] {
			best = i
		}
	}
	return g.X[best]
}

func TestNewErrors(t *testing.T) {
	if _, err := New(nil, 0); err != ErrNoData {
		t.Errorf("want ErrNoData, got %v", err)
	}
}

func TestDensityIntegratesToOne(t *testing.T) {
	k, err := New(normalSample(500, 0, 1, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	min, max := support(k)
	integral := integrate(k, min, max, 512)
	if math.Abs(integral-1) > 0.02 {
		t.Errorf("integral: %v", integral)
	}
}

func TestDensityPeaksNearMean(t *testing.T) {
	k, _ := New(normalSample(800, 5, 1, 2), 0)
	mode := mode(k, 512)
	if math.Abs(mode-5) > 0.5 {
		t.Errorf("mode: %v, want near 5", mode)
	}
	if k.Density(5) <= k.Density(9) {
		t.Error("density at mean should exceed density in tail")
	}
}

func TestBandwidthSelectors(t *testing.T) {
	s := normalSample(400, 0, 2, 3)
	hs := Silverman(s)
	hc := scott(s)
	if hs <= 0 || hc <= 0 {
		t.Fatalf("bandwidths must be positive: %v %v", hs, hc)
	}
	// For a normal sample both rules should be within a factor ~2.
	if hs/hc > 2 || hc/hs > 2 {
		t.Errorf("selectors disagree wildly: silverman=%v scott=%v", hs, hc)
	}
}

func TestBandwidthDegenerateSamples(t *testing.T) {
	if h := Silverman([]float64{3, 3, 3, 3}); h <= 0 {
		t.Errorf("constant sample bandwidth: %v", h)
	}
	if h := Silverman([]float64{0, 0, 0}); h <= 0 {
		t.Errorf("zero sample bandwidth: %v", h)
	}
	if h := scott([]float64{7}); h <= 0 {
		t.Errorf("single point: %v", h)
	}
	if h := Silverman(nil); h != 1 {
		t.Errorf("empty: %v", h)
	}
}

func TestExplicitBandwidthRespected(t *testing.T) {
	k, _ := New([]float64{1, 2, 3}, 0.25)
	if k.Bandwidth != 0.25 {
		t.Errorf("bandwidth: %v", k.Bandwidth)
	}
}

func TestEvaluateGridShape(t *testing.T) {
	k, _ := New(normalSample(100, 0, 1, 4), 0)
	g := k.Evaluate(-3, 3, 100)
	if len(g.X) != 100 || len(g.Y) != 100 {
		t.Fatalf("grid: %d %d", len(g.X), len(g.Y))
	}
	if g.X[0] != -3 || g.X[99] != 3 {
		t.Errorf("grid endpoints: %v %v", g.X[0], g.X[99])
	}
	// Defaults and inverted range.
	g = k.Evaluate(3, -3, 0)
	if len(g.X) != 64 || g.X[0] != -3 {
		t.Errorf("defaults: %d %v", len(g.X), g.X[0])
	}
}

func TestBimodalDetected(t *testing.T) {
	left := normalSample(300, -4, 0.5, 5)
	right := normalSample(300, 4, 0.5, 6)
	k, _ := New(append(left, right...), 0)
	dLeft := k.Density(-4)
	dMid := k.Density(0)
	dRight := k.Density(4)
	if dMid >= dLeft || dMid >= dRight {
		t.Errorf("valley should be lower: left=%v mid=%v right=%v", dLeft, dMid, dRight)
	}
}

func TestWiderSpreadMeansFlatteredDensity(t *testing.T) {
	narrow, _ := New(normalSample(500, 0, 0.5, 7), 0)
	wide, _ := New(normalSample(500, 0, 3, 8), 0)
	if narrow.Density(0) <= wide.Density(0) {
		t.Error("narrow distribution should peak higher at its mean")
	}
}

func TestDensityNonNegativeProperty(t *testing.T) {
	sample := normalSample(200, 0, 1, 9)
	k, _ := New(sample, 0)
	check := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		d := k.Density(math.Mod(x, 100))
		return d >= 0 && !math.IsNaN(d)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSingleAndTwoPointSamples(t *testing.T) {
	k, err := New([]float64{5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d := k.Density(5); d <= 0 {
		t.Errorf("single-point density at point: %v", d)
	}
	k2, _ := New([]float64{1, 9}, 0)
	if d := k2.Density(1); d <= 0 {
		t.Errorf("two-point: %v", d)
	}
}
