package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/compute"
	"repro/internal/rdbms"
	"repro/internal/socialind"
	"repro/internal/synth"
)

// storedScores reads the indicator columns the reindex job owns for every
// article, keyed by id.
type storedScores struct {
	clickbait, subjectivity, composite float64
}

func readStoredScores(t *testing.T, p *Platform) map[string]storedScores {
	t.Helper()
	out := map[string]storedScores{}
	p.articles.Scan(func(r rdbms.Row) bool {
		out[r[0].Str()] = storedScores{
			clickbait:    r[6].Float(),
			subjectivity: r[7].Float(),
			composite:    r[16].Float(),
		}
		return true
	})
	return out
}

// TestReindexFixesStaleAssessments is the regression test for the
// staleness bug: after a model retrain the stored rows keep ingest-time
// scores until ReindexCorpus rewrites them, after which every stored
// assessment equals a fresh evaluation of the same document under the
// current models.
func TestReindexFixesStaleAssessments(t *testing.T) {
	p, w := testPlatform(t, 11, 10, 0.4)
	pool := compute.NewPool(4, nil)

	before := readStoredScores(t, p)
	if _, err := p.TrainClickbaitModel(pool, 7); err != nil {
		t.Fatal(err)
	}

	// The bug: training swapped the live model, but the stored rows still
	// carry ingest-time (lexicon-only) scores.
	afterTrain := readStoredScores(t, p)
	for id, b := range before {
		if afterTrain[id] != b {
			t.Fatalf("training alone must not rewrite stored rows (article %s)", id)
		}
	}
	// And the live model now disagrees with the store for at least one
	// article — GET /api/assess would serve retired-model scores.
	stale := 0
	for _, a := range w.Articles {
		fresh, err := p.Engine.Evaluate(a.RawHTML, a.URL, nil)
		if err != nil {
			t.Fatal(err)
		}
		if fresh.Content.Clickbait != afterTrain[a.ID].clickbait {
			stale++
		}
	}
	if stale == 0 {
		t.Fatal("fixture produced no stale rows; regression test is vacuous")
	}

	// The fix.
	rep, err := p.ReindexCorpus(pool)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Articles != len(w.Articles) {
		t.Errorf("reindexed %d of %d articles", rep.Articles, len(w.Articles))
	}
	if rep.Changed == 0 {
		t.Error("reindex reported no changed rows despite stale scores")
	}
	if rep.Failed != 0 {
		t.Errorf("reindex failures: %d", rep.Failed)
	}

	// Stored rows are now model-current: every column derived from the
	// document equals a fresh Evaluate of it (the acceptance invariant).
	// Columns are found by schema name, not by the writer's indices.
	schema := p.articles.Schema()
	for _, a := range w.Articles {
		fresh, err := p.Engine.Evaluate(a.RawHTML, a.URL, nil)
		if err != nil {
			t.Fatal(err)
		}
		row, err := p.articles.Get(rdbms.String(a.ID))
		if err != nil {
			t.Fatal(err)
		}
		for name, want := range map[string]rdbms.Value{
			"title":         rdbms.String(fresh.Article.Title),
			"clickbait":     rdbms.Float(fresh.Content.Clickbait),
			"subjectivity":  rdbms.Float(fresh.Content.Subjectivity),
			"reading_grade": rdbms.Float(fresh.Content.ReadingGrade),
			"has_byline":    rdbms.Bool(fresh.Content.HasByline),
			"internal_refs": rdbms.Int(int64(fresh.Context.InternalCount)),
			"external_refs": rdbms.Int(int64(fresh.Context.ExternalCount)),
			"sci_refs":      rdbms.Int(int64(fresh.Context.ScientificCount)),
			"sci_ratio":     rdbms.Float(fresh.Context.ScientificRatio),
			"has_refs":      rdbms.Bool(len(fresh.Context.References) > 0),
			"is_topic":      rdbms.Bool(isTopic(fresh)),
			"composite":     rdbms.Float(fresh.Composite),
		} {
			col, err := schema.ColIndex(name)
			if err != nil {
				t.Fatal(err)
			}
			if !row[col].Equal(want) {
				t.Fatalf("article %s: %s = %v after reindex, fresh evaluation %v", a.ID, name, row[col], want)
			}
		}
	}

	// Idempotence: a second pass under unchanged models rewrites nothing.
	rep2, err := p.ReindexCorpus(pool)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Changed != 0 || rep2.StanceChanged != 0 {
		t.Errorf("second reindex changed %d rows / %d stances", rep2.Changed, rep2.StanceChanged)
	}
}

// TestTrainWithReindexOption covers the lifecycle RunDaily follows:
// training and then ReindexCorpus leaves no stale row behind, and training
// alone leaves every row for the next reindex.
func TestTrainWithReindexOption(t *testing.T) {
	p, w := testPlatform(t, 12, 8, 0.4)
	pool := compute.NewPool(4, nil)
	if _, err := p.TrainClickbaitModel(pool, 3); err != nil {
		t.Fatal(err)
	}
	rep, err := p.ReindexCorpus(pool)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Articles != len(w.Articles) {
		t.Errorf("reindexed %d of %d", rep.Articles, len(w.Articles))
	}
	for _, a := range w.Articles[:min(20, len(w.Articles))] {
		fresh, err := p.Engine.Evaluate(a.RawHTML, a.URL, nil)
		if err != nil {
			t.Fatal(err)
		}
		assessment, err := p.AssessID(a.ID)
		if err != nil {
			t.Fatal(err)
		}
		if assessment.Clickbait != fresh.Content.Clickbait {
			t.Fatalf("article %s stale after TrainClickbaitModel and ReindexCorpus", a.ID)
		}
	}
	// Training alone reindexes nothing: every row waits for the next run.
	if _, err := p.TrainClickbaitModel(pool, 3); err != nil {
		t.Fatal(err)
	}
	rep2, err := p.ReindexCorpus(pool)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Skipped != 0 || rep2.Articles != len(w.Articles) {
		t.Errorf("after training alone: reindexed %d, skipped %d of %d", rep2.Articles, rep2.Skipped, len(w.Articles))
	}
}

// TestReindexReconcilesStanceCounts: after a stance retrain + reindex the
// stored reply labels match the live classifier and the social aggregates
// equal a recount of the stored labels.
func TestReindexReconcilesStanceCounts(t *testing.T) {
	p, _ := testPlatform(t, 13, 10, 0.4)
	pool := compute.NewPool(4, nil)
	if _, err := p.TrainStanceModel(pool); err != nil {
		t.Fatal(err)
	}
	rep, err := p.ReindexCorpus(pool)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replies == 0 {
		t.Fatalf("reindex report: %+v", rep)
	}

	// Every stored reply label must match the current classifier.
	type counts struct{ support, deny, comment int64 }
	recount := map[string]*counts{}
	p.replies.Scan(func(r rdbms.Row) bool {
		text, stored := r[2].Str(), r[3].Str()
		if got := p.Engine.Stance().Classify(text).String(); got != stored {
			t.Fatalf("reply %s: stored stance %q, classifier says %q", r[0].Str(), stored, got)
		}
		c, ok := recount[r[1].Str()]
		if !ok {
			c = &counts{}
			recount[r[1].Str()] = c
		}
		switch stored {
		case "support":
			c.support++
		case "deny":
			c.deny++
		default:
			c.comment++
		}
		return true
	})

	// Social aggregates must equal the recount.
	p.social.Scan(func(r rdbms.Row) bool {
		c := recount[r[0].Str()]
		if c == nil {
			c = &counts{}
		}
		if r[5].Int() != c.support || r[6].Int() != c.deny || r[7].Int() != c.comment {
			t.Fatalf("article %s: stored stance counts (%d,%d,%d) != recount (%d,%d,%d)",
				r[0].Str(), r[5].Int(), r[6].Int(), r[7].Int(), c.support, c.deny, c.comment)
		}
		return true
	})
}

// TestReindexConcurrentWithServing runs ReindexCorpus while the real-time
// paths — stored assessment reads, arbitrary-document evaluations and
// reaction ingestion — keep hammering the platform. Run under -race; it
// also asserts that reaction counts bumped mid-reindex are not lost to the
// stance-count reconciliation.
func TestReindexConcurrentWithServing(t *testing.T) {
	p, w := testPlatform(t, 14, 8, 0.4)
	pool := compute.NewPool(4, nil)
	if _, err := p.TrainClickbaitModel(pool, 5); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Assessment readers (the GET /api/assess path).
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := g
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := p.AssessID(w.Articles[i%len(w.Articles)].ID); err != nil {
					t.Error(err)
					return
				}
				i++
			}
		}(g)
	}
	// Arbitrary-document evaluations (the POST /api/assess path).
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			a := w.Articles[i%len(w.Articles)]
			if _, err := p.Engine.Evaluate(a.RawHTML, a.URL, nil); err != nil {
				t.Error(err)
				return
			}
			i++
		}
	}()
	// Concurrent reaction ingestion: likes bump the aggregate row the
	// reindex job reconciles.
	const likes = 50
	wg.Add(1)
	go func() {
		defer wg.Done()
		a := w.Articles[0]
		for i := 0; i < likes; i++ {
			ev := synth.Event{
				Type:       synth.EventTypeReaction,
				PostID:     fmt.Sprintf("race-like-%d", i),
				Kind:       socialind.Like.String(),
				UserID:     "race-user",
				ArticleURL: a.URL,
			}
			if err := p.IngestEvent(&ev); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	if _, err := p.ReindexCorpus(pool); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	// The likes ingested concurrently must all have landed.
	before, err := p.AssessID(w.Articles[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if before.Likes < likes {
		t.Errorf("likes lost during reindex: %d < %d", before.Likes, likes)
	}
	// And every stored row is model-current afterwards.
	for _, a := range w.Articles[:min(10, len(w.Articles))] {
		fresh, err := p.Engine.Evaluate(a.RawHTML, a.URL, nil)
		if err != nil {
			t.Fatal(err)
		}
		assessment, err := p.AssessID(a.ID)
		if err != nil {
			t.Fatal(err)
		}
		if assessment.Clickbait != fresh.Content.Clickbait {
			t.Fatalf("article %s stale after concurrent reindex", a.ID)
		}
	}
}

// TestReindexSkipsDeletedArticles: rows deleted between the document scan
// and the rewrite are skipped, not errors.
func TestReindexSkipsDeletedArticles(t *testing.T) {
	p, w := testPlatform(t, 15, 6, 0.3)
	pool := compute.NewPool(2, nil)
	if _, err := p.TrainClickbaitModel(pool, 2); err != nil {
		t.Fatal(err)
	}
	victim := w.Articles[0].ID
	if err := p.articles.Delete(rdbms.String(victim)); err != nil {
		t.Fatal(err)
	}
	// Forced run: the document store still has the row, so it is evaluated
	// but the article rewrite is a no-op.
	rep, err := p.ReindexCorpus(pool, ReindexForce())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Articles != len(w.Articles) {
		t.Errorf("articles: %d", rep.Articles)
	}
	// Incremental run: the orphan document has no articles row to compare a
	// watermark against, so it is not even streamed; every other row was
	// just stamped current by the forced run.
	rep2, err := p.ReindexCorpus(pool)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Articles != 0 || rep2.Skipped != len(w.Articles)-1 {
		t.Errorf("incremental after force: articles=%d skipped=%d", rep2.Articles, rep2.Skipped)
	}
}

// TestConcurrentReindexNoDoubleCount: two overlapping reindex runs after a
// stance retrain must not double-apply stance-count deltas — each delta is
// derived from the label the write actually replaced, so the second run's
// rewrite of an already-flipped reply is a no-op.
func TestConcurrentReindexNoDoubleCount(t *testing.T) {
	p, _ := testPlatform(t, 16, 10, 0.4)
	pool := compute.NewPool(2, nil)
	if _, err := p.TrainStanceModel(pool); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.ReindexCorpus(pool); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	// The aggregates must equal a recount of the stored labels, which in
	// turn must match the live classifier.
	type counts struct{ support, deny, comment int64 }
	recount := map[string]*counts{}
	p.replies.Scan(func(r rdbms.Row) bool {
		text, stored := r[2].Str(), r[3].Str()
		if got := p.Engine.Stance().Classify(text).String(); got != stored {
			t.Fatalf("reply %s: stored %q, classifier %q", r[0].Str(), stored, got)
		}
		c, ok := recount[r[1].Str()]
		if !ok {
			c = &counts{}
			recount[r[1].Str()] = c
		}
		switch stored {
		case "support":
			c.support++
		case "deny":
			c.deny++
		default:
			c.comment++
		}
		return true
	})
	p.social.Scan(func(r rdbms.Row) bool {
		c := recount[r[0].Str()]
		if c == nil {
			c = &counts{}
		}
		if r[5].Int() != c.support || r[6].Int() != c.deny || r[7].Int() != c.comment {
			t.Fatalf("article %s: counts (%d,%d,%d) != recount (%d,%d,%d) — deltas double-applied",
				r[0].Str(), r[5].Int(), r[6].Int(), r[7].Int(), c.support, c.deny, c.comment)
		}
		return true
	})
}

// TestStanceTrainingIgnoresStoredLabels: the stored stance column is
// rewritten by the serving classifier (ingest + reindex), so training must
// recompute lexicon weak labels from the reply texts — otherwise each
// retrain would learn from the previous model's own predictions.
func TestStanceTrainingIgnoresStoredLabels(t *testing.T) {
	p, _ := testPlatform(t, 17, 8, 0.4)
	pool := compute.NewPool(2, nil)
	want, err := p.TrainStanceModel(pool)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt every stored label; a retrain must be unaffected. (Collect
	// the keys first: mutating under an in-progress Scan would deadlock on
	// the table lock.)
	var replyIDs []rdbms.Value
	p.replies.Scan(func(r rdbms.Row) bool {
		replyIDs = append(replyIDs, r[0])
		return true
	})
	for _, id := range replyIDs {
		if err := p.replies.Mutate(id, func(row rdbms.Row) (rdbms.Row, error) {
			row[3] = rdbms.String("comment")
			return row, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := p.TrainStanceModel(pool)
	if err != nil {
		t.Fatal(err)
	}
	if got.Examples != want.Examples || got.PositiveShare != want.PositiveShare {
		t.Errorf("training depends on stored labels: %+v vs %+v", got, want)
	}
	if got.PositiveShare == 0 {
		t.Error("no positive weak labels — training read the corrupted column")
	}
}
