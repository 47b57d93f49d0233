package indicators

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/socialind"
	"repro/internal/synth"
)

const goodDoc = `<html><head><title>Study examines transmission amid calls for more data</title>
<meta name="author" content="Jane Doe"></head><body>
<h1>Study examines transmission amid calls for more data</h1>
<p class="byline">By Jane Doe</p>
<p>Epidemiologists tracked coronavirus transmission in hospital wards,
citing surveillance data. <a href="https://nature.com/articles/x">(source)</a></p>
<p>Officials estimated quarantine effects on infection rates.
<a href="https://who.int/report/7">(source)</a></p>
</body></html>`

const badDoc = `<html><head><title>You Won't Believe This SHOCKING Miracle Cure!!!</title></head><body>
<h1>You Won't Believe This SHOCKING Miracle Cure!!!</h1>
<p>This amazing, incredible, unbelievable virus trick is absolutely
wonderful and shocking. Terrible doctors hate this stunning miracle.
<a href="https://personal-blog.example/post/1">(source)</a></p>
</body></html>`

func engine() *Engine { return NewEngine(Config{}) }

func supportCascade(n int) []socialind.Post {
	posts := []socialind.Post{{ID: "root", Kind: socialind.Original, UserID: "o", Time: time.Unix(0, 0)}}
	for i := 0; i < n; i++ {
		posts = append(posts, socialind.Post{
			ID: fmt.Sprintf("r%d", i), ParentID: "root", Kind: socialind.Reply,
			UserID: fmt.Sprintf("u%d", i), Text: "Great accurate reporting, so true.",
			Time: time.Unix(int64(60*(i+1)), 0),
		})
	}
	return posts
}

func TestEvaluateGoodVsBad(t *testing.T) {
	e := engine()
	good, err := e.Evaluate(goodDoc, "https://excellent-1.example/a", nil)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := e.Evaluate(badDoc, "https://verypoor-1.example/b", nil)
	if err != nil {
		t.Fatal(err)
	}
	if good.Composite <= bad.Composite {
		t.Errorf("composite ordering: good %v vs bad %v", good.Composite, bad.Composite)
	}
	if good.Content.Clickbait >= bad.Content.Clickbait {
		t.Error("clickbait ordering")
	}
	if good.Context.ScientificCount != 2 {
		t.Errorf("good sci refs: %d", good.Context.ScientificCount)
	}
	if bad.Context.ScientificCount != 0 {
		t.Errorf("bad sci refs: %d", bad.Context.ScientificCount)
	}
	// Topic assignment: the good doc is about covid.
	foundCovid := false
	for _, a := range good.Topics {
		if a.Topic == "health/covid-19" {
			foundCovid = true
		}
	}
	if !foundCovid {
		t.Errorf("covid topic missing: %v", good.Topics)
	}
}

func TestEvaluateWithCascade(t *testing.T) {
	e := engine()
	r, err := e.Evaluate(goodDoc, "https://excellent-1.example/c", supportCascade(5))
	if err != nil {
		t.Fatal(err)
	}
	if r.Social.Reach.Replies != 5 {
		t.Errorf("replies: %d", r.Social.Reach.Replies)
	}
	if r.Social.Stances.Support != 5 {
		t.Errorf("support: %d", r.Social.Stances.Support)
	}
	// Supportive stance should raise the composite versus no cascade.
	plain, _ := e.Evaluate(goodDoc, "", nil)
	if r.Composite <= plain.Composite-0.2 {
		t.Errorf("supportive cascade should not crater composite: %v vs %v", r.Composite, plain.Composite)
	}
}

func TestEvaluateParseError(t *testing.T) {
	e := engine()
	if _, err := e.Evaluate("", "u", nil); !errors.Is(err, ErrNoArticle) {
		t.Errorf("empty doc: %v", err)
	}
}

func TestCacheBehaviour(t *testing.T) {
	e := NewEngine(Config{CacheSize: 2})
	r1, _ := e.Evaluate(goodDoc, "https://a.example/1", nil)
	r2, _ := e.Evaluate(goodDoc, "https://a.example/1", nil)
	if r1 != r2 {
		t.Error("cache miss on identical URL")
	}
	if cacheLen(e) != 1 {
		t.Errorf("cache len: %d", cacheLen(e))
	}
	// Eviction at capacity.
	e.Evaluate(goodDoc, "https://a.example/2", nil)
	e.Evaluate(goodDoc, "https://a.example/3", nil)
	if cacheLen(e) != 2 {
		t.Errorf("cache len after eviction: %d", cacheLen(e))
	}
	// Cascade evaluations never serve stale social data from the cache.
	rc, _ := e.Evaluate(goodDoc, "https://a.example/1", supportCascade(3))
	if rc.Social.Reach.Posts == 0 {
		t.Error("cascade evaluation served stale cache")
	}
	// The cache is keyed by document content hash, so even URL-less
	// evaluations (the POST /api/assess path for never-seen articles)
	// are de-duplicated.
	ra, _ := e.Evaluate(goodDoc, "", nil)
	rb, _ := e.Evaluate(goodDoc, "", nil)
	if ra != rb {
		t.Error("URL-less evaluation missed the content-hash cache")
	}
	// Model change flushes.
	e.SetStanceModel(nil)
	if cacheLen(e) != 0 {
		t.Error("cache not flushed on model change")
	}
}

func TestCacheDisabled(t *testing.T) {
	e := NewEngine(Config{CacheSize: -1})
	e.Evaluate(goodDoc, "https://a.example/1", nil)
	if cacheLen(e) != 0 {
		t.Error("disabled cache stored")
	}
}

func TestCompositeBounds(t *testing.T) {
	e := engine()
	w := synth.GenerateWorld(synth.Config{Seed: 13, Days: 6, RateScale: 0.3})
	for _, a := range w.Articles[:min(60, len(w.Articles))] {
		r, err := e.Evaluate(a.RawHTML, a.URL, w.Cascades[a.ID])
		if err != nil {
			t.Fatal(err)
		}
		if r.Composite < 0 || r.Composite > 1 {
			t.Fatalf("composite out of range: %v", r.Composite)
		}
	}
}

func TestCompositeCorrelatesWithClass(t *testing.T) {
	// The composite must order outlet classes on average — the property
	// the consensus experiment (claim C2) relies on.
	e := engine()
	w := synth.GenerateWorld(synth.Config{Seed: 14, Days: 12, RateScale: 0.5})
	sums := map[string]float64{}
	counts := map[string]int{}
	for _, a := range w.Articles {
		r, err := e.Evaluate(a.RawHTML, a.URL, nil)
		if err != nil {
			t.Fatal(err)
		}
		key := a.Rating.String()
		sums[key] += r.Composite
		counts[key]++
	}
	excMean := sums["excellent"] / float64(counts["excellent"])
	vpMean := sums["very-poor"] / float64(counts["very-poor"])
	if excMean <= vpMean+0.1 {
		t.Errorf("composite separation: excellent %v vs very-poor %v", excMean, vpMean)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
