package mlcore

import (
	"math"
	"sort"
)

// Vocabulary maps terms to stable feature indices. Terms are assigned
// indices in first-seen order during fitting.
type Vocabulary struct {
	index map[string]int
	terms []string
}

// NewVocabulary returns an empty vocabulary.
func NewVocabulary() *Vocabulary {
	return &Vocabulary{index: make(map[string]int)}
}

// Add returns the index for term, inserting it if new.
func (v *Vocabulary) Add(term string) int {
	if i, ok := v.index[term]; ok {
		return i
	}
	i := len(v.terms)
	v.index[term] = i
	v.terms = append(v.terms, term)
	return i
}

// Lookup returns the index for term and whether it is known.
func (v *Vocabulary) Lookup(term string) (int, bool) {
	i, ok := v.index[term]
	return i, ok
}

// Term returns the term at index i, or "" when out of range.
func (v *Vocabulary) Term(i int) string {
	if i < 0 || i >= len(v.terms) {
		return ""
	}
	return v.terms[i]
}

// TFIDF is a fitted TF-IDF vectoriser: it holds the vocabulary and the
// per-term inverse document frequencies.
type TFIDF struct {
	// Vocab is the fitted vocabulary.
	Vocab *Vocabulary
	// IDF holds smooth inverse document frequencies, indexed by term index.
	IDF []float64
	// MinDF is the minimum document frequency a term needed to be kept.
	MinDF int
}

// FitTFIDF builds a vectoriser from tokenised documents. Terms occurring in
// fewer than minDF documents are dropped (minDF < 1 is treated as 1). The
// IDF uses the smooth formulation ln((1+n)/(1+df)) + 1.
func FitTFIDF(docs [][]string, minDF int) *TFIDF {
	if minDF < 1 {
		minDF = 1
	}
	df := make(map[string]int)
	for _, doc := range docs {
		seen := make(map[string]struct{}, len(doc))
		for _, term := range doc {
			if _, dup := seen[term]; dup {
				continue
			}
			seen[term] = struct{}{}
			df[term]++
		}
	}
	// Deterministic vocabulary order: sort surviving terms.
	kept := make([]string, 0, len(df))
	for term, n := range df {
		if n >= minDF {
			kept = append(kept, term)
		}
	}
	sort.Strings(kept)

	t := &TFIDF{Vocab: NewVocabulary(), MinDF: minDF}
	t.IDF = make([]float64, 0, len(kept))
	for _, term := range kept {
		t.Vocab.Add(term)
		idf := math.Log(float64(1+len(docs))/float64(1+df[term])) + 1
		t.IDF = append(t.IDF, idf)
	}
	return t
}

// Transform converts one tokenised document into an L2-normalised TF-IDF
// sparse vector. Unknown terms are ignored.
func (t *TFIDF) Transform(doc []string) SparseVector {
	counts := make(map[int]int)
	for _, term := range doc {
		if i, ok := t.Vocab.Lookup(term); ok {
			counts[i]++
		}
	}
	v := make(SparseVector, len(counts))
	for i, c := range counts {
		v[i] = float64(c) * t.IDF[i]
	}
	return v.L2Normalize()
}

// TransformAll maps Transform over a corpus.
func (t *TFIDF) TransformAll(docs [][]string) []SparseVector {
	out := make([]SparseVector, len(docs))
	for i, d := range docs {
		out[i] = t.Transform(d)
	}
	return out
}

// HashFeatures maps terms into a fixed-size feature space via FNV-1a
// feature hashing (the "hashing trick"); dim must be positive. Collisions
// simply add. The result is L2-normalised.
func HashFeatures(terms []string, dim int) SparseVector {
	v := make(SparseVector)
	for _, term := range terms {
		h := fnv1a(term)
		idx := int(h % uint64(dim))
		v[idx]++
	}
	return v.L2Normalize()
}

// fnv1a is the 64-bit FNV-1a hash.
func fnv1a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}
