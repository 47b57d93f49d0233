// Under -race, sync.Pool drops a quarter of its Puts at random, so an
// allocation count through the pooled text analysis means nothing there.

//go:build !race

package indicators

import (
	"testing"

	"repro/internal/extract"
	"repro/internal/synth"
)

// evaluateArticleAllocs is what EvaluateArticle allocates on the article
// of TestEvaluateArticleAllocations with pooled text analyses (99 when
// every evaluation built its analyses from scratch).
const evaluateArticleAllocs = 32

// TestEvaluateArticleAllocations guards the cold evaluation's garbage: the
// body and title analyses come from the pool and go back to it, so an
// evaluation allocates the report, its stems and little else.
func TestEvaluateArticleAllocations(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage counters change what the compiler inlines and keeps on the stack")
	}
	// The longest body of a small seeded world: above parallelBodyThreshold,
	// so the body analysis runs on the engine's worker pool.
	w := synth.GenerateWorld(synth.Config{Seed: 5, Days: 2, RateScale: 0.2})
	var art *extract.Article
	for _, a := range w.Articles {
		p, err := extract.Parse(a.RawHTML, a.URL)
		if err == nil && (art == nil || len(p.Body) > len(art.Body)) {
			art = p
		}
	}
	if len(art.Body) < parallelBodyThreshold {
		t.Fatalf("longest body is %d bytes, below the parallel threshold %d", len(art.Body), parallelBodyThreshold)
	}
	e := NewEngine(Config{CacheSize: -1})
	e.EvaluateArticle(art, nil)
	limit := float64(evaluateArticleAllocs + evaluateArticleAllocs/20)
	if n := testing.AllocsPerRun(100, func() { e.EvaluateArticle(art, nil) }); n > limit {
		t.Errorf("EvaluateArticle allocates %v times, limit %v", n, limit)
	}
}
