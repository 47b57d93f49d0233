package textutil

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func TestNewAnalysisMatchesIndividualPasses(t *testing.T) {
	texts := []string{
		"",
		"Doctors HATE this one weird trick! Can't you believe it?",
		"The peer-reviewed study (published 2020-01-15) examined 1,234 patients.\n\nDr. Smith said the results were preliminary. See https://nature.com/x.",
		"Ünïcode wörds AND ALLCAPS tokens mixed with lowercase prose.",
	}
	for _, text := range texts {
		a := NewAnalysis(text)
		toks := Tokenize(text)
		if len(a.Tokens) != len(toks) {
			t.Fatalf("%q: token count %d != %d", text, len(a.Tokens), len(toks))
		}
		words := Words(text)
		if len(a.Words) != len(words) {
			t.Fatalf("%q: word count %d != %d", text, len(a.Words), len(words))
		}
		for i, w := range a.Words {
			if w.Lower != words[i] {
				t.Errorf("%q word %d: lower %q != %q", text, i, w.Lower, words[i])
			}
			if w.Stem != Stem(words[i]) {
				t.Errorf("%q word %d: stem %q != %q", text, i, w.Stem, Stem(words[i]))
			}
			if w.Syllables != SyllableCount(words[i]) {
				t.Errorf("%q word %d: syllables %d != %d", text, i, w.Syllables, SyllableCount(words[i]))
			}
			if w.Stop != IsStopword(words[i]) {
				t.Errorf("%q word %d: stop %v != %v", text, i, w.Stop, IsStopword(words[i]))
			}
			if a.Tokens[w.TokenIndex].Kind != KindWord {
				t.Errorf("%q word %d: TokenIndex %d is not a word token", text, i, w.TokenIndex)
			}
		}
		if a.SentenceCount != SentenceCount(text) {
			t.Errorf("%q: sentences %d != %d", text, a.SentenceCount, SentenceCount(text))
		}
		if got, want := a.AllCapsWords, AllCapsWordCount(text); got != want {
			t.Errorf("%q: all-caps %d != %d", text, got, want)
		}
		stems := a.AppendContentStems(nil)
		want := StemAll(ContentWords(text))
		if len(stems) != len(want) {
			t.Fatalf("%q: content stems %v != %v", text, stems, want)
		}
		for i := range stems {
			if stems[i] != want[i] {
				t.Errorf("%q: content stem %d %q != %q", text, i, stems[i], want[i])
			}
		}
		if a.ContentWordCount() != len(want) {
			t.Errorf("%q: content word count %d != %d", text, a.ContentWordCount(), len(want))
		}
	}
}

func TestAnalysisLetterCount(t *testing.T) {
	a := NewAnalysis("Abc de-f 123 x!")
	// Letters inside word tokens: "Abc" (3) + "de-f" (3) + "x" (1).
	if a.Letters != 7 {
		t.Errorf("letters: %d, want 7", a.Letters)
	}
}

func TestSentenceCountMatchesSentences(t *testing.T) {
	texts := []string{
		"",
		"One. Two! Three?",
		"Dr. Smith arrived. He spoke at 3.14 rad.\n\nNew paragraph here",
	}
	for _, text := range texts {
		if got, want := SentenceCount(text), len(sentences(text)); got != want {
			t.Errorf("%q: count %d != len(sentences) %d", text, got, want)
		}
	}
}

func TestIsStopwordCaseInsensitive(t *testing.T) {
	for _, w := range []string{"the", "The", "THE", "aren't"} {
		if !IsStopword(w) {
			t.Errorf("IsStopword(%q) = false", w)
		}
	}
	for _, w := range []string{"virus", "Virus", ""} {
		if IsStopword(w) {
			t.Errorf("IsStopword(%q) = true", w)
		}
	}
	if !IsStopwordLower("the") || IsStopwordLower("virus") {
		t.Error("IsStopwordLower misclassified")
	}
}

func TestSyllableCountLowerMatches(t *testing.T) {
	for _, w := range []string{"make", "table", "don't", "science", "walked", "a", "rhythm"} {
		if got, want := SyllableCountLower(w), SyllableCount(w); got != want {
			t.Errorf("%q: %d != %d", w, got, want)
		}
	}
}

func TestTokenLowerAllocFree(t *testing.T) {
	tok := Token{Text: "already", Kind: KindWord}
	if allocs := testing.AllocsPerRun(100, func() { _ = tok.Lower() }); allocs != 0 {
		t.Errorf("Lower on lower-case token allocated %v times/op", allocs)
	}
	up := Token{Text: "Upper", Kind: KindWord}
	if up.Lower() != "upper" {
		t.Error("Lower broken for upper-case input")
	}
}

// checkIndividualPasses compares a, the analysis of text, field by field
// with the standalone functions it replaces.
func checkIndividualPasses(t *testing.T, a *Analysis, text string) {
	t.Helper()
	if a.Text != text {
		t.Fatalf("Text %q, want %q", a.Text, text)
	}
	toks := Tokenize(text)
	if !slices.Equal(a.Tokens, toks) {
		t.Fatalf("%q: tokens %v != %v", text, a.Tokens, toks)
	}
	var wordToks []int
	letters, caps := 0, 0
	for i, tok := range toks {
		if tok.Kind != KindWord {
			continue
		}
		wordToks = append(wordToks, i)
		for _, r := range tok.Text {
			if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' {
				letters++
			}
		}
		if c := tok.Text[0]; c >= 'A' && c <= 'Z' {
			caps++
		}
	}
	words := Words(text)
	if len(a.Words) != len(words) || len(words) != len(wordToks) {
		t.Fatalf("%q: %d words, want %d", text, len(a.Words), len(words))
	}
	for i, w := range a.Words {
		want := WordInfo{
			TokenIndex: wordToks[i],
			Lower:      words[i],
			Stem:       Stem(words[i]),
			Syllables:  SyllableCount(words[i]),
			Stop:       IsStopword(words[i]),
		}
		if w != want {
			t.Fatalf("%q word %d: %+v, want %+v", text, i, w, want)
		}
	}
	if a.SentenceCount != SentenceCount(text) || a.AllCapsWords != AllCapsWordCount(text) ||
		a.Letters != letters || a.CapitalizedWords != caps {
		t.Fatalf("%q: sentences/all-caps/letters/capitalised %d/%d/%d/%d, want %d/%d/%d/%d", text,
			a.SentenceCount, a.AllCapsWords, a.Letters, a.CapitalizedWords,
			SentenceCount(text), AllCapsWordCount(text), letters, caps)
	}
	if a.LowerText() != strings.ToLower(text) {
		t.Fatalf("%q: LowerText %q", text, a.LowerText())
	}
}

// FuzzAnalysisReuse checks that reusing a released analysis is invisible:
// the analysis of second, built on the scratch the analysis of first left
// in the pool, matches the individual passes, and the strings the first
// analysis handed out (lower-cased forms and stems) are unchanged.
func FuzzAnalysisReuse(f *testing.F) {
	f.Add("Doctors HATE this one weird trick! Can't you believe it?",
		"The peer-reviewed study (published 2020-01-15) examined 1,234 patients. See https://nature.com/x.")
	f.Add("relational conditional rational valenci digitizer hopefulness", "the the THE The tHe")
	f.Add("Ünïcode wörds AND ALLCAPS tokens", "")
	f.Add("", "caresses ponies ties sized hopping falling")
	f.Add("a\u0085b\u00a0c \xff\xfe words", "Dr. Smith arrived. He spoke at 3.14 rad.\n\nNew paragraph here")
	f.Fuzz(func(t *testing.T, first, second string) {
		a := NewAnalysis(first)
		handed := slices.Clone(a.Words)
		want := slices.Clone(handed)
		for i := range want {
			want[i].Lower = strings.Clone(want[i].Lower)
			want[i].Stem = strings.Clone(want[i].Stem)
		}
		a.Release()
		b := NewAnalysis(second)
		defer b.Release()
		checkIndividualPasses(t, b, second)
		if !slices.Equal(handed, want) {
			t.Fatalf("analysing %q changed the words handed out for %q", second, first)
		}
	})
}

// TestReleaseClearsDocument: a released analysis keeps its scratch but no
// reference into the document or its stems.
func TestReleaseClearsDocument(t *testing.T) {
	a := NewAnalysis("Scientists REPORTED that the Trial succeeded. The trial ran.")
	a.LowerText()
	a.Release()
	if a.Text != "" || a.lowered != "" || a.SentenceCount != 0 || a.Letters != 0 || len(a.seen) != 0 {
		t.Fatalf("released analysis still holds %+v", a)
	}
	if cap(a.Tokens) == 0 || cap(a.Words) == 0 || cap(a.distinct) == 0 {
		t.Fatal("Release dropped the scratch it should keep")
	}
	for _, tok := range a.Tokens[:cap(a.Tokens)] {
		if tok != (Token{}) {
			t.Fatalf("released token %+v", tok)
		}
	}
	for _, w := range a.Words[:cap(a.Words)] {
		if w != (WordInfo{}) {
			t.Fatalf("released word %+v", w)
		}
	}
	for _, d := range a.distinct[:cap(a.distinct)] {
		if d != (wordData{}) {
			t.Fatalf("released word data %+v", d)
		}
	}
}

// TestPoolRetainsNothingAfterHugeDocument: Release drops an analysis whose
// token capacity exceeds maxPooledTokens, so one 1 MB document does not
// leave megabytes of scratch pinned in the pool.
func TestPoolRetainsNothingAfterHugeDocument(t *testing.T) {
	vocab := strings.Fields("the study found vaccine patients Reported significant results " +
		"researchers University trial, data. evidence suggests! were published")
	rng := rand.New(rand.NewSource(34))
	var sb strings.Builder
	for sb.Len() < 1<<20 {
		sb.WriteString(vocab[rng.Intn(len(vocab))])
		sb.WriteByte(' ')
	}
	for analysisPool.Get() != nil {
	}
	a := NewAnalysis(sb.String())
	if cap(a.Tokens) <= maxPooledTokens {
		t.Fatalf("a 1 MB document has token capacity %d, not above %d", cap(a.Tokens), maxPooledTokens)
	}
	a.Release()
	for p := analysisPool.Get(); p != nil; p = analysisPool.Get() {
		if p.(*Analysis) == a {
			t.Fatal("the pool kept the analysis of a 1 MB document")
		}
	}
}
