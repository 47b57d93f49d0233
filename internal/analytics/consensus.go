package analytics

import (
	"math"
	"math/rand"

	"repro/internal/mlcore"
	"repro/internal/outlets"
)

// ConsensusResult reports the indicator-assisted rating experiment (the
// §1 claim, evaluated in Smeros et al.: indicators "helped the platform
// users to have a better consensus about the quality of the underlying
// articles", and §3.1: they "help non-expert users evaluate more
// accurately the quality of news articles").
type ConsensusResult struct {
	// DisagreementWithout / DisagreementWith are the mean per-article
	// across-rater standard deviations of quality estimates (lower =
	// better consensus). This is the paper's headline "better consensus".
	DisagreementWithout, DisagreementWith float64
	// MAEWithout / MAEWith are the mean absolute errors of individual
	// rater estimates against ground truth (lower = each user evaluates
	// more accurately).
	MAEWithout, MAEWith float64
	// CorrWithout / CorrWith are the mean per-rater Pearson correlations
	// between a rater's estimates and ground truth across articles
	// (higher = users order articles by quality more accurately). Unlike
	// MAE, this metric is immune to shrinkage: anchoring every rater on a
	// constant leaves it unchanged, so an improvement here certifies the
	// indicator carries real per-article information.
	CorrWithout, CorrWith float64
	// Articles and Raters record the experiment size.
	Articles, Raters int
}

// DisagreementReduction returns the relative reduction in disagreement,
// e.g. 0.4 = 40% less disagreement with indicators.
func (r ConsensusResult) DisagreementReduction() float64 {
	if r.DisagreementWithout == 0 {
		return 0
	}
	return 1 - r.DisagreementWith/r.DisagreementWithout
}

// AccuracyGain returns the relative reduction in per-rater MAE.
func (r ConsensusResult) AccuracyGain() float64 {
	if r.MAEWithout == 0 {
		return 0
	}
	return 1 - r.MAEWith/r.MAEWithout
}

// ConsensusConfig parameterises the experiment.
type ConsensusConfig struct {
	// Raters is the simulated non-expert pool size (default 12).
	Raters int
	// Seed drives the simulation.
	Seed int64
}

const (
	// privateNoise is the std of each rater's idiosyncratic reading of an
	// article on the 1..5 scale.
	privateNoise = 1.0
	// indicatorWeight is how strongly raters with indicator access anchor
	// on the shared automated score (0..1).
	indicatorWeight = 0.6
)

// groundTruthQuality maps the external outlet ranking onto the 1..5
// quality scale (Excellent → 5 .. VeryPoor → 1), the experiment's gold
// standard.
func groundTruthQuality(c outlets.RatingClass) float64 {
	return 5 - float64(c)
}

// indicatorEstimate maps the composite automated score (0..1, higher =
// better) onto the 1..5 scale.
func indicatorEstimate(composite float64) float64 { return 1 + 4*composite }

// calibrateAnchor fits shared = a + b·composite against the external
// outlet-ranking scale by least squares. The platform can do this because
// outlet quality ratings are imported from external sources (paper §3.3,
// the ACSH ranking in the demo); the calibration turns a correlated but
// arbitrarily scaled composite into an unbiased anchor. When the composite
// is (near-)constant it carries no per-article information and the fit is
// degenerate, so the raw uncalibrated mapping is kept — anchoring on an
// uninformative signal must not be laundered into an informative one.
func calibrateAnchor(facts []ArticleFact) func(float64) float64 {
	n := float64(len(facts))
	var sumX, sumY, sumXX, sumXY float64
	for _, f := range facts {
		x, y := f.Composite, groundTruthQuality(f.Rating)
		sumX += x
		sumY += y
		sumXX += x * x
		sumXY += x * y
	}
	varX := sumXX/n - (sumX/n)*(sumX/n)
	const minVar = 1e-4 // below this the composite is effectively constant
	if varX < minVar {
		return indicatorEstimate
	}
	b := (sumXY/n - sumX/n*sumY/n) / varX
	a := sumY/n - b*sumX/n
	return func(composite float64) float64 { return clamp15(a + b*composite) }
}

// ConsensusExperiment simulates non-expert raters estimating article
// quality with and without access to the automated indicators.
//
// Mechanism (not outcome) is what the simulation fixes: every rater forms
// a private noisy estimate of the article's true quality; raters *with*
// indicator access blend that private estimate with the shared,
// calibrated composite indicator. Whether this helps depends entirely on
// whether the real indicator pipeline produces scores that correlate with
// ground truth — which is exactly what the experiment verifies: the
// correlation metric cannot improve under an uninformative anchor.
func ConsensusExperiment(facts []ArticleFact, cfg ConsensusConfig) (ConsensusResult, error) {
	if len(facts) == 0 {
		return ConsensusResult{}, ErrNoData
	}
	if cfg.Raters <= 0 {
		cfg.Raters = 12
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	anchor := calibrateAnchor(facts)

	var res ConsensusResult
	res.Articles = len(facts)
	res.Raters = cfg.Raters

	truths := make([]float64, len(facts))
	// estimates[rater][article]
	estWithout := makeMatrix(cfg.Raters, len(facts))
	estWith := makeMatrix(cfg.Raters, len(facts))
	for i, f := range facts {
		truths[i] = groundTruthQuality(f.Rating)
		shared := anchor(f.Composite)
		for r := 0; r < cfg.Raters; r++ {
			private := clamp15(truths[i] + rng.NormFloat64()*privateNoise)
			estWithout[r][i] = private
			estWith[r][i] = clamp15((1-indicatorWeight)*private + indicatorWeight*shared)
		}
	}

	// Consensus: mean per-article across-rater standard deviation.
	var disWithout, disWith []float64
	column := make([]float64, cfg.Raters)
	for i := range facts {
		for r := 0; r < cfg.Raters; r++ {
			column[r] = estWithout[r][i]
		}
		disWithout = append(disWithout, mlcore.StdDev(column))
		for r := 0; r < cfg.Raters; r++ {
			column[r] = estWith[r][i]
		}
		disWith = append(disWith, mlcore.StdDev(column))
	}
	res.DisagreementWithout = mlcore.Mean(disWithout)
	res.DisagreementWith = mlcore.Mean(disWith)

	// Accuracy: per-rater MAE and per-rater Pearson correlation.
	var maeWithout, maeWith, corrWithout, corrWith float64
	for r := 0; r < cfg.Raters; r++ {
		for i := range facts {
			maeWithout += math.Abs(estWithout[r][i] - truths[i])
			maeWith += math.Abs(estWith[r][i] - truths[i])
		}
		corrWithout += pearson(estWithout[r], truths)
		corrWith += pearson(estWith[r], truths)
	}
	n := float64(cfg.Raters * len(facts))
	res.MAEWithout = maeWithout / n
	res.MAEWith = maeWith / n
	res.CorrWithout = corrWithout / float64(cfg.Raters)
	res.CorrWith = corrWith / float64(cfg.Raters)
	return res, nil
}

func makeMatrix(rows, cols int) [][]float64 {
	m := make([][]float64, rows)
	backing := make([]float64, rows*cols)
	for r := range m {
		m[r], backing = backing[:cols], backing[cols:]
	}
	return m
}

// pearson returns the Pearson correlation of two equal-length series, or 0
// when either is constant.
func pearson(x, y []float64) float64 {
	n := float64(len(x))
	if n == 0 {
		return 0
	}
	mx, my := mlcore.Mean(x), mlcore.Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

func clamp15(x float64) float64 {
	if x < 1 {
		return 1
	}
	if x > 5 {
		return 5
	}
	return x
}
