package mlcore

import (
	"math"
	"testing"
	"testing/quick"
)

var tinyCorpus = [][]string{
	{"virus", "spreads", "fast"},
	{"virus", "vaccine", "trial"},
	{"vaccine", "trial", "results"},
	{"economy", "markets", "fall"},
}

func TestFitTFIDFVocabulary(t *testing.T) {
	tf := FitTFIDF(tinyCorpus, 1)
	if len(tf.Vocab.terms) != 9 {
		t.Errorf("vocab size: got %d want 9", len(tf.Vocab.terms))
	}
	if _, ok := tf.Vocab.Lookup("virus"); !ok {
		t.Error("virus missing from vocab")
	}
}

func TestFitTFIDFMinDF(t *testing.T) {
	tf := FitTFIDF(tinyCorpus, 2)
	// Only "virus", "vaccine", "trial" appear in >= 2 docs.
	if len(tf.Vocab.terms) != 3 {
		t.Errorf("vocab size with minDF=2: got %d want 3", len(tf.Vocab.terms))
	}
	if _, ok := tf.Vocab.Lookup("economy"); ok {
		t.Error("economy should be pruned")
	}
}

func TestTFIDFRareTermsWeighMore(t *testing.T) {
	tf := FitTFIDF(tinyCorpus, 1)
	iVirus, _ := tf.Vocab.Lookup("virus")  // df=2
	iEcon, _ := tf.Vocab.Lookup("economy") // df=1
	if tf.IDF[iEcon] <= tf.IDF[iVirus] {
		t.Errorf("rare term IDF %v should exceed common term IDF %v",
			tf.IDF[iEcon], tf.IDF[iVirus])
	}
}

func TestTransformNormalized(t *testing.T) {
	tf := FitTFIDF(tinyCorpus, 1)
	v := tf.Transform([]string{"virus", "vaccine", "unknownterm"})
	if got := v.Norm(); math.Abs(got-1) > 1e-9 {
		t.Errorf("norm: got %v want 1", got)
	}
	if len(v) != 2 {
		t.Errorf("unknown term should be dropped: %v", v)
	}
}

func TestTransformEmptyDoc(t *testing.T) {
	tf := FitTFIDF(tinyCorpus, 1)
	v := tf.Transform(nil)
	if len(v) != 0 {
		t.Errorf("empty doc: %v", v)
	}
}

func TestTransformAll(t *testing.T) {
	tf := FitTFIDF(tinyCorpus, 1)
	vs := tf.TransformAll(tinyCorpus)
	if len(vs) != 4 {
		t.Fatalf("got %d vectors", len(vs))
	}
	// Docs sharing terms should be more similar than unrelated docs.
	simRelated := cosine(vs[1], vs[2])   // share vaccine, trial
	simUnrelated := cosine(vs[0], vs[3]) // share nothing
	if simRelated <= simUnrelated {
		t.Errorf("related %v should exceed unrelated %v", simRelated, simUnrelated)
	}
}

func TestVocabularyDeterminism(t *testing.T) {
	a := FitTFIDF(tinyCorpus, 1)
	b := FitTFIDF(tinyCorpus, 1)
	for i := 0; i < len(a.Vocab.terms); i++ {
		if a.Vocab.Term(i) != b.Vocab.Term(i) {
			t.Fatalf("vocab order not deterministic at %d: %q vs %q",
				i, a.Vocab.Term(i), b.Vocab.Term(i))
		}
	}
}

func TestVocabularyTermOutOfRange(t *testing.T) {
	v := NewVocabulary()
	v.Add("x")
	if v.Term(-1) != "" || v.Term(5) != "" {
		t.Error("out of range should return empty")
	}
	if v.Term(0) != "x" {
		t.Error("term 0")
	}
	if v.Add("x") != 0 {
		t.Error("re-add should return existing index")
	}
}

func TestHashFeatures(t *testing.T) {
	v := HashFeatures([]string{"a", "b", "a"}, 64)
	if got := v.Norm(); math.Abs(got-1) > 1e-9 {
		t.Errorf("norm: %v", got)
	}
	for i := range v {
		if i < 0 || i >= 64 {
			t.Errorf("index out of range: %d", i)
		}
	}
	// Same input, same output.
	w := HashFeatures([]string{"a", "b", "a"}, 64)
	for i, x := range v {
		if !almostEq(w[i], x) {
			t.Error("hashing not deterministic")
		}
	}
}

func TestHashFeaturesIndexRangeProperty(t *testing.T) {
	check := func(terms []string) bool {
		v := HashFeatures(terms, 128)
		for i := range v {
			if i < 0 || i >= 128 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
