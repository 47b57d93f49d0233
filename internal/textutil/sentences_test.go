package textutil

import (
	"testing"
	"testing/quick"
	"unicode/utf8"
)

// sentence is a contiguous span of the input that the segmenter considers a
// sentence.
type sentence struct {
	// Text is the trimmed sentence text.
	Text string
	// Start and End are byte offsets of the (untrimmed) span in the input.
	Start, End int
}

// sentences collects the spans scanSentences finds: the reference
// SentenceCount is compared with, and the view the segmenter tests read.
func sentences(text string) []sentence {
	var out []sentence
	scanSentences(text, func(trimmed string, start, end int) {
		out = append(out, sentence{Text: trimmed, Start: start, End: end})
	})
	return out
}

func sentenceTexts(ss []sentence) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.Text
	}
	return out
}

func TestSentencesBasic(t *testing.T) {
	got := sentences("The study was small. Results are promising! Will it replicate?")
	want := []string{
		"The study was small.",
		"Results are promising!",
		"Will it replicate?",
	}
	if len(got) != len(want) {
		t.Fatalf("got %d sentences %v, want %d", len(got), sentenceTexts(got), len(want))
	}
	for i := range want {
		if got[i].Text != want[i] {
			t.Errorf("sentence %d: got %q want %q", i, got[i].Text, want[i])
		}
	}
}

func TestSentencesAbbreviations(t *testing.T) {
	got := sentences("Dr. Smith et al. published the trial. It was large.")
	if len(got) != 2 {
		t.Fatalf("abbreviations split wrongly: %v", sentenceTexts(got))
	}
	if got[0].Text != "Dr. Smith et al. published the trial." {
		t.Errorf("first sentence: %q", got[0].Text)
	}
}

func TestSentencesDecimals(t *testing.T) {
	got := sentences("The rate rose by 3.5 percent. Officials disagreed.")
	if len(got) != 2 {
		t.Fatalf("decimal split wrongly: %v", sentenceTexts(got))
	}
}

func TestSentencesEllipsisAndQuotes(t *testing.T) {
	got := sentences(`He said "it works." She disagreed...`)
	if len(got) != 2 {
		t.Fatalf("got %v", sentenceTexts(got))
	}
}

func TestSentencesParagraphBreak(t *testing.T) {
	got := sentences("Headline without period\n\nBody starts here. And continues.")
	if len(got) != 3 {
		t.Fatalf("paragraph break: got %v", sentenceTexts(got))
	}
	if got[0].Text != "Headline without period" {
		t.Errorf("headline: %q", got[0].Text)
	}
}

func TestSentencesTrailingFragment(t *testing.T) {
	got := sentences("Complete sentence. Trailing fragment without period")
	if len(got) != 2 {
		t.Fatalf("got %v", sentenceTexts(got))
	}
	if got[1].Text != "Trailing fragment without period" {
		t.Errorf("fragment: %q", got[1].Text)
	}
}

func TestSentencesEmpty(t *testing.T) {
	if got := sentences(""); len(got) != 0 {
		t.Errorf("empty: %v", got)
	}
	if got := sentences(" \n \n "); len(got) != 0 {
		t.Errorf("blank: %v", got)
	}
}

func TestSentencesLowercaseContinuation(t *testing.T) {
	// A period followed by a lower-case word is not a boundary (common in
	// sloppy abbreviations).
	got := sentences("The ver. two release shipped.")
	if len(got) != 1 {
		t.Fatalf("got %v", sentenceTexts(got))
	}
}

func TestSentenceCount(t *testing.T) {
	if n := SentenceCount("One. Two. Three."); n != 3 {
		t.Errorf("got %d want 3", n)
	}
}

func TestSentencesSpansProperty(t *testing.T) {
	check := func(s string) bool {
		if !utf8.ValidString(s) {
			return true
		}
		ss := sentences(s)
		prevEnd := 0
		for _, sent := range ss {
			if sent.Start < prevEnd || sent.End < sent.Start || sent.End > len(s) {
				return false
			}
			if sent.Text == "" {
				return false
			}
			prevEnd = sent.End
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
