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
// goroutine (32 while the body analysis ran on a second one, 99 when every
// evaluation built its analyses from scratch).
const evaluateArticleAllocs = 21

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
	e := NewEngine(Config{CacheSize: -1})
	e.evaluateBase(art)
	limit := float64(evaluateArticleAllocs + evaluateArticleAllocs/20)
	if n := testing.AllocsPerRun(100, func() { e.evaluateBase(art) }); n > limit {
		t.Errorf("evaluateBase allocates %v times, limit %v", n, limit)
	}
}
