package textutil

import (
	"strings"
	"testing"
)

func TestNGrams(t *testing.T) {
	words := []string{"you", "won't", "believe", "this"}
	got := NGrams(words, 2)
	want := []string{"you won't", "won't believe", "believe this"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("got %v want %v", got, want)
	}
	if NGrams(words, 5) != nil {
		t.Error("n > len should be nil")
	}
	if NGrams(words, 0) != nil {
		t.Error("n < 1 should be nil")
	}
	uni := NGrams(words, 1)
	if len(uni) != 4 || uni[0] != "you" {
		t.Errorf("unigrams: %v", uni)
	}
}

func TestBigrams(t *testing.T) {
	got := Bigrams([]string{"a", "b", "c"})
	if len(got) != 2 || got[0] != "a b" || got[1] != "b c" {
		t.Errorf("got %v", got)
	}
}

func TestCharNGrams(t *testing.T) {
	got := CharNGrams("abcd", 3)
	want := []string{"abc", "bcd"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("got %v want %v", got, want)
	}
	// Unicode safety.
	got = CharNGrams("héllo", 2)
	if got[0] != "hé" {
		t.Errorf("unicode bigram: %q", got[0])
	}
	if CharNGrams("ab", 3) != nil {
		t.Error("short string should be nil")
	}
}

func TestCapitalizedRatio(t *testing.T) {
	if r := CapitalizedRatio("You Will Never Guess"); r != 1.0 {
		t.Errorf("all caps-initial: got %v", r)
	}
	if r := CapitalizedRatio("plain lowercase words here"); r != 0.0 {
		t.Errorf("lowercase: got %v", r)
	}
	if r := CapitalizedRatio("Two of words Here"); r != 0.5 {
		t.Errorf("half: got %v", r)
	}
	if r := CapitalizedRatio(""); r != 0.0 {
		t.Errorf("empty: got %v", r)
	}
	if r := CapitalizedRatio("42 100"); r != 0.0 {
		t.Errorf("numbers only: got %v", r)
	}
}

func TestAllCapsWordCount(t *testing.T) {
	if n := AllCapsWordCount("SHOCKING news about NASA today"); n != 2 {
		t.Errorf("got %d want 2", n)
	}
	if n := AllCapsWordCount("a B c"); n != 0 {
		t.Errorf("single letters should not count: got %d", n)
	}
}

func TestCollapseWhitespace(t *testing.T) {
	if got := CollapseWhitespace("  a \n b\t\tc  "); got != "a b c" {
		t.Errorf("got %q", got)
	}
	if got := CollapseWhitespace(""); got != "" {
		t.Errorf("empty: got %q", got)
	}
}

// FuzzCollapseWhitespace pins CollapseWhitespace to the expression it
// replaced, byte for byte, including invalid UTF-8 and the non-ASCII
// spaces U+0085 and U+00A0.
func FuzzCollapseWhitespace(f *testing.F) {
	for _, s := range []string{
		"", " ", "a", "a b", "  a \n b\t\tc  ", "already collapsed text",
		"a\u0085b\u00a0c", "\u00a0lead and trail\u0085", "x\x85y \xc2\x85z", "\xff \xfe\t\xc2",
		"\u3000ideographic\u2028line\u2029para\v\f",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := CollapseWhitespace(s), strings.Join(strings.Fields(s), " "); got != want {
			t.Fatalf("CollapseWhitespace(%q) = %q, want %q", s, got, want)
		}
	})
}

func TestIsStopword(t *testing.T) {
	for _, w := range []string{"the", "The", "AND", "is"} {
		if !IsStopword(w) {
			t.Errorf("%q should be a stopword", w)
		}
	}
	for _, w := range []string{"virus", "science", ""} {
		if IsStopword(w) {
			t.Errorf("%q should not be a stopword", w)
		}
	}
}

func TestRemoveStopwords(t *testing.T) {
	got := RemoveStopwords([]string{"the", "virus", "is", "spreading"})
	if len(got) != 2 || got[0] != "virus" || got[1] != "spreading" {
		t.Errorf("got %v", got)
	}
}

func TestContentWords(t *testing.T) {
	got := ContentWords("The virus IS spreading rapidly")
	want := []string{"virus", "spreading", "rapidly"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("got %v want %v", got, want)
	}
}
