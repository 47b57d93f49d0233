package classify

import "math"

// NaiveBayes is a multinomial naive Bayes text classifier over string
// class labels and string tokens, with Laplace (add-alpha) smoothing.
type NaiveBayes struct {
	// Alpha is the additive smoothing constant.
	Alpha float64

	classes     []string
	classIdx    map[string]int
	classDocs   []float64            // docs per class
	totalDocs   float64              // all docs
	tokenCounts []map[string]float64 // per class: token -> count
	classTotals []float64            // per class: total token count
	vocab       map[string]struct{}
}

// NewNaiveBayes returns an untrained model; alpha <= 0 defaults to 1.
func NewNaiveBayes(alpha float64) *NaiveBayes {
	if alpha <= 0 {
		alpha = 1
	}
	return &NaiveBayes{
		Alpha:    alpha,
		classIdx: make(map[string]int),
		vocab:    make(map[string]struct{}),
	}
}

// Observe adds one tokenised document with its class label to the model.
// Training is incremental; Observe can be called at any time.
func (nb *NaiveBayes) Observe(tokens []string, class string) {
	ci, ok := nb.classIdx[class]
	if !ok {
		ci = len(nb.classes)
		nb.classIdx[class] = ci
		nb.classes = append(nb.classes, class)
		nb.classDocs = append(nb.classDocs, 0)
		nb.tokenCounts = append(nb.tokenCounts, make(map[string]float64))
		nb.classTotals = append(nb.classTotals, 0)
	}
	nb.classDocs[ci]++
	nb.totalDocs++
	for _, tok := range tokens {
		nb.tokenCounts[ci][tok]++
		nb.classTotals[ci]++
		nb.vocab[tok] = struct{}{}
	}
}

// LogPosteriors returns the unnormalised log posterior for each class in
// observation order. Unknown tokens are smoothed; an untrained model returns
// nil.
func (nb *NaiveBayes) LogPosteriors(tokens []string) []float64 {
	if nb.totalDocs == 0 {
		return nil
	}
	v := float64(len(nb.vocab))
	out := make([]float64, len(nb.classes))
	for ci := range nb.classes {
		lp := math.Log(nb.classDocs[ci] / nb.totalDocs)
		denom := nb.classTotals[ci] + nb.Alpha*v
		for _, tok := range tokens {
			lp += math.Log((nb.tokenCounts[ci][tok] + nb.Alpha) / denom)
		}
		out[ci] = lp
	}
	return out
}

// Predict returns the most likely class and its normalised probability.
// Ties break towards the earliest-observed class. An untrained model
// returns ("", 0).
func (nb *NaiveBayes) Predict(tokens []string) (string, float64) {
	lps := nb.LogPosteriors(tokens)
	if lps == nil {
		return "", 0
	}
	best := 0
	for i := 1; i < len(lps); i++ {
		if lps[i] > lps[best] {
			best = i
		}
	}
	// Normalise with the log-sum-exp trick.
	maxLp := lps[best]
	var z float64
	for _, lp := range lps {
		z += math.Exp(lp - maxLp)
	}
	return nb.classes[best], 1 / z
}
