package indicators

import (
	"reflect"
	"testing"

	"repro/internal/contentind"
	"repro/internal/extract"
	"repro/internal/readability"
	"repro/internal/synth"
	"repro/internal/textutil"
)

// TestSharedAnalysisEquivalence verifies the tentpole invariant: the
// engine's shared single-pass analysis path produces byte-identical Report
// values to the original per-family text implementations, which each
// re-tokenise independently. The reference values are computed here
// through the still-exported sequential entry points (readability.Score,
// contentind.SubjectivityScore, LexiconClickbaitScore, Tagger.Tag).
func TestSharedAnalysisEquivalence(t *testing.T) {
	e := NewEngine(Config{CacheSize: -1})
	w := synth.GenerateWorld(synth.Config{Seed: 99, Days: 8, RateScale: 0.4})
	if len(w.Articles) == 0 {
		t.Fatal("empty world")
	}
	n := 80
	if len(w.Articles) < n {
		n = len(w.Articles)
	}
	for _, a := range w.Articles[:n] {
		art, err := extract.Parse(a.RawHTML, a.URL)
		if err != nil {
			t.Fatal(err)
		}
		got := e.evaluateBase(art)

		// Reference values via the sequential per-family paths.
		wantClickbait := contentind.LexiconClickbaitScore(art.Title)
		wantSubjectivity := contentind.SubjectivityScore(art.Body)
		wantReadability := readability.Compute(readability.Analyze(art.Body))
		wantTopics := e.tagger.TagStems(textutil.StemAll(textutil.ContentWords(art.Title + " " + art.Body)))

		if got.Content.Clickbait != wantClickbait {
			t.Fatalf("%s: clickbait %v != sequential %v", a.URL, got.Content.Clickbait, wantClickbait)
		}
		if got.Content.Subjectivity != wantSubjectivity {
			t.Fatalf("%s: subjectivity %v != sequential %v", a.URL, got.Content.Subjectivity, wantSubjectivity)
		}
		if got.Content.Readability != wantReadability {
			t.Fatalf("%s: readability %+v != sequential %+v", a.URL, got.Content.Readability, wantReadability)
		}
		if !reflect.DeepEqual(got.Topics, wantTopics) {
			t.Fatalf("%s: topics %v != sequential %v", a.URL, got.Topics, wantTopics)
		}
	}
}

// TestAnalyzeDocMatchesAnalyze checks the readability statistics bridge on
// the raw corpus bodies: Analyze (own tokenisation) and AnalyzeDoc (shared
// analysis) must agree on every counter.
func TestAnalyzeDocMatchesAnalyze(t *testing.T) {
	w := synth.GenerateWorld(synth.Config{Seed: 7, Days: 4, RateScale: 0.3})
	n := 40
	if len(w.Articles) < n {
		n = len(w.Articles)
	}
	for _, a := range w.Articles[:n] {
		art, err := extract.Parse(a.RawHTML, a.URL)
		if err != nil {
			t.Fatal(err)
		}
		want := readability.Analyze(art.Body)
		got := readability.AnalyzeDoc(textutil.NewAnalysis(art.Body))
		if got != want {
			t.Fatalf("%s: stats %+v != %+v", a.URL, got, want)
		}
	}
}
