package textutil

import (
	"testing"
	"testing/quick"
)

func TestSyllableCountKnownWords(t *testing.T) {
	cases := []struct {
		word string
		want int
	}{
		{"cat", 1},
		{"water", 2},
		{"banana", 3},
		{"make", 1},
		{"table", 2},
		{"little", 2},
		{"walked", 1},
		{"wanted", 2},
		{"the", 1},
		{"be", 1},
		{"science", 2},
		{"coronavirus", 5},
		{"pandemic", 3},
		{"vaccine", 2},
		{"immunity", 4},
		{"a", 1},
		{"rhythm", 1},
		{"don't", 1},
		{"SHOUTING", 2},
	}
	for _, c := range cases {
		if got := SyllableCount(c.word); got != c.want {
			t.Errorf("SyllableCount(%q) = %d, want %d", c.word, got, c.want)
		}
	}
}

func TestSyllableCountDegenerate(t *testing.T) {
	if got := SyllableCount(""); got != 1 {
		t.Errorf("empty word: got %d want 1", got)
	}
	if got := SyllableCount("123"); got != 1 {
		t.Errorf("digits: got %d want 1", got)
	}
	if got := SyllableCount("---"); got != 1 {
		t.Errorf("punct: got %d want 1", got)
	}
}

func TestSyllableCountAlwaysPositive(t *testing.T) {
	check := func(w string) bool { return SyllableCount(w) >= 1 }
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// syllables sums the per-word syllable estimates of a whole text and
// counts its words of three or more, from the single-pass analysis the
// readability formulas read.
func syllables(text string) (total, poly int) {
	a := NewAnalysis(text)
	defer a.Release()
	for _, f := range a.Forms {
		total += f.Syllables * f.Count
		if f.Syllables >= 3 {
			poly += f.Count
		}
	}
	return total, poly
}

func TestTotalSyllables(t *testing.T) {
	// "the cat sat" = 1+1+1.
	if got, _ := syllables("the cat sat"); got != 3 {
		t.Errorf("got %d want 3", got)
	}
	// URLs and numbers contribute nothing.
	if got, _ := syllables("https://a.com 42"); got != 0 {
		t.Errorf("got %d want 0", got)
	}
}

func TestPolysyllableCount(t *testing.T) {
	_, got := syllables("the banana pandemic is over")
	if got != 2 {
		t.Errorf("got %d want 2 (banana, pandemic)", got)
	}
}
