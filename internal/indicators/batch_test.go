package indicators

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/classify"
	"repro/internal/compute"
	"repro/internal/contentind"
	"repro/internal/synth"
)

// TestEvaluateBatchEquivalence pins the core batch invariant: every
// BatchResult report is identical to what the real-time Evaluate path
// returns for the same (document, url), regardless of pool parallelism.
func TestEvaluateBatchEquivalence(t *testing.T) {
	w := synth.GenerateWorld(synth.Config{Seed: 7, Days: 6, RateScale: 0.4})
	if len(w.Articles) < 8 {
		t.Fatal("fixture too small")
	}
	n := 40
	if len(w.Articles) < n {
		n = len(w.Articles)
	}
	docs := make([]BatchDoc, 0, n)
	for _, a := range w.Articles[:n] {
		docs = append(docs, BatchDoc{ID: a.ID, HTML: a.RawHTML, URL: a.URL})
	}

	reference := NewEngine(Config{CacheSize: -1})
	for _, pool := range []*compute.Pool{nil, compute.NewPool(1, nil), compute.NewPool(4, nil)} {
		e := NewEngine(Config{})
		results, err := e.EvaluateBatch(pool, docs)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != len(docs) {
			t.Fatalf("results: %d docs: %d", len(results), len(docs))
		}
		for i, res := range results {
			if res.ID != docs[i].ID {
				t.Fatalf("order not preserved at %d: %s != %s", i, res.ID, docs[i].ID)
			}
			if res.Err != nil {
				t.Fatalf("%s: %v", res.ID, res.Err)
			}
			want, err := reference.Evaluate(docs[i].HTML, docs[i].URL, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Report, want) {
				t.Fatalf("%s: batch report differs from Evaluate", res.ID)
			}
		}
		// The batch must not populate (or depend on) the report cache.
		if cacheLen(e) != 0 {
			t.Errorf("batch polluted the report cache: %d entries", cacheLen(e))
		}
	}
}

// TestEvaluateBatchPartialFailure: unparseable documents fail individually
// without failing the batch.
func TestEvaluateBatchPartialFailure(t *testing.T) {
	w := synth.GenerateWorld(synth.Config{Seed: 8, Days: 4, RateScale: 0.3})
	docs := []BatchDoc{
		{ID: "ok", HTML: w.Articles[0].RawHTML, URL: w.Articles[0].URL},
		{ID: "broken", HTML: "", URL: "https://x.example/y"},
		{ID: "ok2", HTML: w.Articles[1].RawHTML, URL: w.Articles[1].URL},
	}
	e := NewEngine(Config{})
	results, err := e.EvaluateBatch(compute.NewPool(2, nil), docs)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("good docs failed: %v %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil || !errors.Is(results[1].Err, ErrNoArticle) {
		t.Fatalf("broken doc: %v", results[1].Err)
	}
	if results[1].Report != nil {
		t.Error("failed doc should have no report")
	}
}

// TestEvaluateBatchEmpty: a nil/empty batch is a no-op.
func TestEvaluateBatchEmpty(t *testing.T) {
	e := NewEngine(Config{})
	results, err := e.EvaluateBatch(compute.NewPool(2, nil), nil)
	if err != nil || results != nil {
		t.Fatalf("empty batch: %v %v", results, err)
	}
}

// TestEvaluateBatchUsesCurrentModels: retraining between two batches over
// the same documents changes the batch output — the batch path must read
// the live models, never a cached pre-retraining report.
func TestEvaluateBatchUsesCurrentModels(t *testing.T) {
	w := synth.GenerateWorld(synth.Config{Seed: 9, Days: 6, RateScale: 0.4})
	n := 20
	if len(w.Articles) < n {
		n = len(w.Articles)
	}
	docs := make([]BatchDoc, 0, n)
	for _, a := range w.Articles[:n] {
		docs = append(docs, BatchDoc{ID: a.ID, HTML: a.RawHTML, URL: a.URL})
	}
	e := NewEngine(Config{})
	pool := compute.NewPool(2, nil)
	before, err := e.EvaluateBatch(pool, docs)
	if err != nil {
		t.Fatal(err)
	}
	// Train a tiny clickbait model on the fixture titles (weak labels via
	// the lexicon, same shape as the platform's periodic job).
	titles := make([]string, 0, len(w.Articles))
	for _, a := range w.Articles {
		titles = append(titles, a.Title)
	}
	model := trainTinyClickbait(t, e, titles)
	e.SetClickbaitModel(model)
	after, err := e.EvaluateBatch(pool, docs)
	if err != nil {
		t.Fatal(err)
	}
	changed := 0
	for i := range after {
		if after[i].Report.Content.Clickbait != before[i].Report.Content.Clickbait {
			changed++
		}
	}
	if changed == 0 {
		t.Error("batch output identical across a model swap")
	}
}

func trainTinyClickbait(t *testing.T, e *Engine, titles []string) *classify.LogReg {
	t.Helper()
	feats := e.ClickbaitFeatures()
	var data []classify.Example
	for _, title := range titles {
		score := contentind.LexiconClickbaitScore(title)
		ex := classify.Example{X: feats.Extract(title)}
		switch {
		case score >= 0.6:
			ex.Y = true
		case score <= 0.15:
			ex.Y = false
		default:
			continue
		}
		data = append(data, ex)
	}
	if len(data) == 0 {
		t.Skip("fixture produced no confident weak labels")
	}
	model, err := classify.TrainLogReg(data, classify.LogRegConfig{Dim: feats.Dim(), Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return model
}
