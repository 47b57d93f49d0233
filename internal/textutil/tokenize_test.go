package textutil

import (
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

func kinds(toks []Token) []TokenKind {
	out := make([]TokenKind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func texts(toks []Token) []string {
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = t.Text
	}
	return out
}

func TestTokenizeWordsAndPunct(t *testing.T) {
	toks := Tokenize("Scientists confirm: masks work!")
	want := []string{"Scientists", "confirm", ":", "masks", "work", "!"}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(toks), texts(toks), len(want))
	}
	for i, w := range want {
		if toks[i].Text != w {
			t.Errorf("token %d: got %q, want %q", i, toks[i].Text, w)
		}
	}
	if toks[0].Kind != KindWord || toks[2].Kind != KindPunct || toks[5].Kind != KindPunct {
		t.Errorf("unexpected kinds: %v", kinds(toks))
	}
}

func TestTokenizeContractionsAndHyphens(t *testing.T) {
	toks := Tokenize("don't under-estimate peer-reviewed work")
	want := []string{"don't", "under-estimate", "peer-reviewed", "work"}
	got := texts(toks)
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %q, want %q", i, got[i], want[i])
		}
	}
}

func TestTokenizeNumbers(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"1,234.5 cases", "1,234.5"},
		{"on 2020-01-15 the", "2020-01-15"},
		{"a 95% rise", "95%"},
		{"ratio 3/4 found", "3/4"},
	}
	for _, c := range cases {
		toks := Tokenize(c.in)
		found := false
		for _, tok := range toks {
			if tok.Kind == KindNumber && tok.Text == c.want {
				found = true
			}
		}
		if !found {
			t.Errorf("Tokenize(%q): number token %q not found in %v", c.in, c.want, texts(toks))
		}
	}
}

func TestTokenizeURLs(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"see https://nature.com/articles/s41586 for details", "https://nature.com/articles/s41586"},
		{"visit www.who.int.", "www.who.int"},
		{"(http://cdc.gov/info)", "http://cdc.gov/info"},
		{"HTTPS://EXAMPLE.ORG/X rocks", "HTTPS://EXAMPLE.ORG/X"},
	}
	for _, c := range cases {
		toks := Tokenize(c.in)
		found := false
		for _, tok := range toks {
			if tok.Kind == KindURL && tok.Text == c.want {
				found = true
			}
		}
		if !found {
			t.Errorf("Tokenize(%q): URL token %q not found in %v", c.in, c.want, texts(toks))
		}
	}
}

func TestTokenizeSocialEntities(t *testing.T) {
	toks := Tokenize("@who said #COVID19 is serious")
	if toks[0].Kind != KindMention || toks[0].Text != "@who" {
		t.Errorf("mention: got %+v", toks[0])
	}
	var hashtag *Token
	for i := range toks {
		if toks[i].Kind == KindHashtag {
			hashtag = &toks[i]
		}
	}
	if hashtag == nil || hashtag.Text != "#COVID19" {
		t.Errorf("hashtag not found in %v", texts(toks))
	}
}

func TestTokenizePunctRuns(t *testing.T) {
	toks := Tokenize("Really??? Yes... wow!!")
	var punct []string
	for _, tok := range toks {
		if tok.Kind == KindPunct {
			punct = append(punct, tok.Text)
		}
	}
	want := []string{"???", "...", "!!"}
	if len(punct) != len(want) {
		t.Fatalf("punct runs: got %v, want %v", punct, want)
	}
	for i := range want {
		if punct[i] != want[i] {
			t.Errorf("punct %d: got %q want %q", i, punct[i], want[i])
		}
	}
}

func TestTokenizeEmpty(t *testing.T) {
	if toks := Tokenize(""); len(toks) != 0 {
		t.Errorf("empty input: got %v", toks)
	}
	if toks := Tokenize("   \n\t  "); len(toks) != 0 {
		t.Errorf("whitespace input: got %v", toks)
	}
}

func TestTokenizeUnicode(t *testing.T) {
	toks := Tokenize("Zürich reports naïve café results")
	want := []string{"Zürich", "reports", "naïve", "café", "results"}
	got := texts(toks)
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %q want %q", i, got[i], want[i])
		}
	}
}

// TestTokenizeInvalidUTF8: a stray byte decodes as one RuneError byte, as
// in a range loop, so a truncated sequence at the end of the text cannot
// push a token past it.
func TestTokenizeInvalidUTF8(t *testing.T) {
	for _, text := range []string{"\xc3", "ab\xe2\x82", "x \xff\xfe y", "caf\xc3 \xf0\x9f\x98"} {
		prev := 0
		for _, tok := range Tokenize(text) {
			if tok.Start < prev || tok.End > len(text) || tok.Text != text[tok.Start:tok.End] {
				t.Fatalf("%q: token %+v out of place", text, tok)
			}
			prev = tok.End
		}
	}
	if got := texts(Tokenize("x \xff y")); len(got) != 3 || got[1] != "\xff" {
		t.Errorf("stray byte tokens: %q", got)
	}
}

func TestTokenizeOffsetsProperty(t *testing.T) {
	// Offsets must be strictly increasing, in range, and slice back to Text.
	check := func(s string) bool {
		if !utf8.ValidString(s) {
			return true // only defined for valid UTF-8
		}
		toks := Tokenize(s)
		prevEnd := 0
		for _, tok := range toks {
			if tok.Start < prevEnd || tok.End <= tok.Start || tok.End > len(s) {
				return false
			}
			if s[tok.Start:tok.End] != tok.Text {
				return false
			}
			prevEnd = tok.End
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestWordsLowercases(t *testing.T) {
	got := Words("The QUICK Brown fox")
	want := []string{"the", "quick", "brown", "fox"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestWordCount(t *testing.T) {
	if n := WordCount("three little words!"); n != 3 {
		t.Errorf("got %d want 3", n)
	}
	if n := WordCount("https://a.com 42"); n != 0 {
		t.Errorf("URL+number should not count as words: got %d", n)
	}
}

func TestTokenKindString(t *testing.T) {
	names := map[TokenKind]string{
		KindWord: "word", KindNumber: "number", KindURL: "url",
		KindMention: "mention", KindHashtag: "hashtag", KindPunct: "punct",
		KindEmoji: "emoji", TokenKind(200): "unknown",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("kind %d: got %q want %q", k, k.String(), want)
		}
	}
}

func TestIsWordLike(t *testing.T) {
	if !(Token{Kind: KindWord}).IsWordLike() {
		t.Error("word should be word-like")
	}
	if !(Token{Kind: KindNumber}).IsWordLike() {
		t.Error("number should be word-like")
	}
	if (Token{Kind: KindURL}).IsWordLike() {
		t.Error("url should not be word-like")
	}
}
