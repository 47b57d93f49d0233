// Under -race, sync.Pool drops a quarter of its Puts at random, so an
// allocation count through the pooled text analysis means nothing there.

//go:build !race

package indicators

import (
	"testing"

	"repro/internal/extract"
	"repro/internal/synth"
)

// evaluateArticleAllocs is what evaluateBase allocates on the article
// of TestEvaluateArticleAllocations with pooled text analyses, on one
// goroutine, once the form table holds the article's words (10 while
// refind parsed every link with net/url and split every host on dots,
// 13 while the topic tagger built slices and maps per document, 21 while
// every analysis built a string of its stems and the tagger a slice of
// them, 32 while the body analysis ran on a second goroutine, 99 when
// every evaluation built its analyses from scratch).
const evaluateArticleAllocs = 5

// TestEvaluateArticleAllocations guards the cold evaluation's garbage: the
// body and title analyses come from the pool and go back to it, so an
// evaluation allocates the report, its stems and little else.
func TestEvaluateArticleAllocations(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage counters change what the compiler inlines and keeps on the stack")
	}
	// The longest body of a small seeded world.
	w := synth.GenerateWorld(synth.Config{Seed: 5, Days: 2, RateScale: 0.2})
	var art *extract.Article
	for _, a := range w.Articles {
		p, err := extract.Parse(a.RawHTML, a.URL)
		if err == nil && (art == nil || len(p.Body) > len(art.Body)) {
			art = p
		}
	}
	e := NewEngine(Config{})
	e.evaluateBase(art)
	limit := float64(evaluateArticleAllocs + evaluateArticleAllocs/20)
	if n := testing.AllocsPerRun(100, func() { e.evaluateBase(art) }); n > limit {
		t.Errorf("evaluateBase allocates %v times, limit %v", n, limit)
	}
}

// evaluateAllocs is what Evaluate allocates on the longest document of
// the same world, markup to report: the extracted article, its links and
// strings (see extract's TestParseAllocations), then what evaluateBase
// allocates.
const evaluateAllocs = 22

// TestEvaluateAllocations guards the whole evaluation POST /api/assess
// runs, on every request: no cache stands in front of it.
func TestEvaluateAllocations(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage counters change what the compiler inlines and keeps on the stack")
	}
	w := synth.GenerateWorld(synth.Config{Seed: 5, Days: 2, RateScale: 0.2})
	var doc, url string
	for _, a := range w.Articles {
		if len(a.RawHTML) > len(doc) {
			doc, url = a.RawHTML, a.URL
		}
	}
	e := NewEngine(Config{})
	if _, err := e.Evaluate(doc, url, nil); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(100, func() { _, _ = e.Evaluate(doc, url, nil) })
	if limit := float64(evaluateAllocs + evaluateAllocs/20); n > limit {
		t.Errorf("Evaluate allocates %v times, limit %v", n, limit)
	}
}
