package reviews

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/rdbms"
)

var day0 = time.Date(2020, 1, 15, 0, 0, 0, 0, time.UTC)

// newTable declares the review table on an in-memory database the way
// the platform does: one lock stripe, article_id hash-indexed.
func newTable(t *testing.T) *rdbms.Table {
	t.Helper()
	tbl, err := rdbms.NewDB().CreateTablePartitioned("reviews", Schema(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("article_id", rdbms.HashIndex); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// newStore is a Store over a fresh newTable.
func newStore(t *testing.T) *Store {
	t.Helper()
	return NewStore(newTable(t))
}

func validReview(article, reviewer string, score int, at time.Time) Review {
	r := Review{ArticleID: article, Reviewer: reviewer, Time: at}
	for c := range r.Scores {
		r.Scores[c] = score
	}
	return r
}

func TestSubmitAndGet(t *testing.T) {
	tbl := newTable(t)
	s := NewStore(tbl)
	id, err := s.Submit(validReview("a1", "dr-smith", 4, day0))
	if err != nil {
		t.Fatal(err)
	}
	got := s.ForArticle("a1")
	if len(got) != 1 || got[0].ID != id || got[0].ArticleID != "a1" || got[0].Reviewer != "dr-smith" ||
		got[0].Scores[0] != 4 || got[0].ReviewerWeight != 1 || !got[0].Time.Equal(day0) {
		t.Errorf("got %+v", got)
	}
	if tbl.Len() != 1 {
		t.Errorf("count: %d", tbl.Len())
	}
}

func TestSubmitValidation(t *testing.T) {
	s := newStore(t)
	bad := validReview("a1", "r", 4, day0)
	bad.Scores[3] = 6
	if _, err := s.Submit(bad); !errors.Is(err, ErrBadScore) {
		t.Errorf("high score: %v", err)
	}
	bad.Scores[3] = 0
	if _, err := s.Submit(bad); !errors.Is(err, ErrBadScore) {
		t.Errorf("zero score: %v", err)
	}
	if _, err := s.Submit(validReview("", "r", 3, day0)); !errors.Is(err, ErrIncomplete) {
		t.Errorf("missing article: %v", err)
	}
	if _, err := s.Submit(validReview("a", "", 3, day0)); !errors.Is(err, ErrIncomplete) {
		t.Errorf("missing reviewer: %v", err)
	}
}

func TestAggregateSimpleAverage(t *testing.T) {
	s := newStore(t)
	s.Submit(validReview("a1", "r1", 4, day0))
	s.Submit(validReview("a1", "r2", 2, day0))
	agg, err := s.AggregateAt("a1", day0)
	if err != nil {
		t.Fatal(err)
	}
	// Same time, same weight: plain mean 3.
	for c, v := range agg.PerCriterion {
		if math.Abs(v-3) > 1e-9 {
			t.Errorf("criterion %d: %v", c, v)
		}
	}
	if math.Abs(agg.Overall-3) > 1e-9 {
		t.Errorf("overall: %v", agg.Overall)
	}
	if agg.Count != 2 {
		t.Errorf("count: %d", agg.Count)
	}
}

func TestAggregateTimeDecay(t *testing.T) {
	s := newStore(t) // 30-day half-life
	s.Submit(validReview("a1", "old", 5, day0))
	s.Submit(validReview("a1", "new", 1, day0.AddDate(0, 0, 30)))
	// At day 30: old review has weight 0.5, new has 1 → (5*0.5 + 1*1)/1.5.
	agg, err := s.AggregateAt("a1", day0.AddDate(0, 0, 30))
	if err != nil {
		t.Fatal(err)
	}
	want := (5*0.5 + 1*1) / 1.5
	if math.Abs(agg.Overall-want) > 1e-9 {
		t.Errorf("decayed overall: %v want %v", agg.Overall, want)
	}
	// Much later both are stale but ratio stays: weights 2^-k and 2^-(k-1).
	agg, _ = s.AggregateAt("a1", day0.AddDate(0, 0, 300))
	if math.Abs(agg.Overall-want) > 1e-6 {
		t.Errorf("stale ratio overall: %v want %v", agg.Overall, want)
	}
}

func TestAggregateReviewerWeight(t *testing.T) {
	s := newStore(t)
	heavy := validReview("a1", "prof", 5, day0)
	heavy.ReviewerWeight = 3
	s.Submit(heavy)
	s.Submit(validReview("a1", "novice", 1, day0))
	agg, _ := s.AggregateAt("a1", day0)
	want := (5*3.0 + 1*1.0) / 4
	if math.Abs(agg.Overall-want) > 1e-9 {
		t.Errorf("weighted overall: %v want %v", agg.Overall, want)
	}
}

func TestAggregateFutureReviewCountsFresh(t *testing.T) {
	s := newStore(t)
	s.Submit(validReview("a1", "r", 4, day0.AddDate(0, 0, 10)))
	agg, err := s.AggregateAt("a1", day0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(agg.Overall-4) > 1e-9 {
		t.Errorf("future review: %v", agg.Overall)
	}
}

func TestAggregateMissingArticle(t *testing.T) {
	s := newStore(t)
	if _, err := s.AggregateAt("ghost", day0); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing: %v", err)
	}
}

func TestFreeTextNewestFirst(t *testing.T) {
	s := newStore(t)
	r1 := validReview("a1", "r1", 3, day0)
	r1.Text = "older text"
	r2 := validReview("a1", "r2", 3, day0.AddDate(0, 0, 1))
	r2.Text = "newer text"
	s.Submit(r1)
	s.Submit(r2)
	agg, _ := s.AggregateAt("a1", day0.AddDate(0, 0, 2))
	if len(agg.Texts) != 2 || agg.Texts[0] != "newer text" {
		t.Errorf("texts: %v", agg.Texts)
	}
}

func TestForArticleAndByReviewerOrdering(t *testing.T) {
	s := newStore(t)
	s.Submit(validReview("a1", "r1", 3, day0.AddDate(0, 0, 2)))
	s.Submit(validReview("a1", "r2", 3, day0))
	s.Submit(validReview("a2", "r1", 3, day0.AddDate(0, 0, 1)))
	arts := s.ForArticle("a1")
	if len(arts) != 2 || !arts[0].Time.Before(arts[1].Time) {
		t.Errorf("article ordering: %+v", arts)
	}
	if got := s.ForArticle("ghost"); len(got) != 0 {
		t.Errorf("ghost article: %v", got)
	}
}

func TestOutletQuality(t *testing.T) {
	s := newStore(t)
	s.Submit(validReview("a1", "r", 5, day0))
	s.Submit(validReview("a2", "r", 3, day0))
	// a1 and a2 belong to outlet o; b-only articles to nobody.
	outletOf := func(articleID string) (string, bool) { return "o", articleID != "b1" }
	s.Submit(validReview("b1", "r", 1, day0))
	q := s.OutletQuality(day0, outletOf)["o"]
	if q.Articles != 2 {
		t.Errorf("n: %d", q.Articles)
	}
	if math.Abs(q.Score-4) > 1e-9 {
		t.Errorf("quality: %v", q.Score)
	}
	none := func(string) (string, bool) { return "", false }
	if got := s.OutletQuality(day0, none); len(got) != 0 {
		t.Errorf("empty outlet: %v", got)
	}
}

func TestCriterionString(t *testing.T) {
	labels := map[Criterion]string{
		FactualAccuracy: "factual-accuracy", ScientificUnderstanding: "scientific-understanding",
		LogicReasoning: "logic-reasoning", PrecisionClarity: "precision-clarity",
		SourcesQuality: "sources-quality", Fairness: "fairness",
		Clickbaitness: "clickbaitness", Criterion(99): "unknown",
	}
	for c, want := range labels {
		if c.String() != want {
			t.Errorf("%d: %q", c, c.String())
		}
	}
}

func TestConcurrentSubmissions(t *testing.T) {
	s := newStore(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				article := fmt.Sprintf("a%d", i%5)
				if _, err := s.Submit(validReview(article, fmt.Sprintf("r%d", w), 1+(i%5), day0)); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s.t.Len() != 400 {
		t.Errorf("count: %d", s.t.Len())
	}
	agg, err := s.AggregateAt("a0", day0)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Count != 80 {
		t.Errorf("aggregate count: %d", agg.Count)
	}
}

// TestAggregateOrderAtOneInstant: a bootstrapped server pins its clock, so
// every review can carry the same Time. The aggregate is still a function
// of the rows — bit-identical whatever order the table holds them in —
// and the texts come newest first with ties going to the higher id.
func TestAggregateOrderAtOneInstant(t *testing.T) {
	src := newTable(t)
	s := NewStore(src)
	for i := range 20 {
		r := validReview("a1", fmt.Sprintf("r%d", i), 1+i%5, day0)
		r.Scores[2] = 5 - i%5
		r.ReviewerWeight = 0.1 + 0.37*float64(i)
		r.Text = fmt.Sprintf("text %d", i)
		if _, err := s.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	want, err := s.AggregateAt("a1", day0.AddDate(0, 0, 3))
	if err != nil {
		t.Fatal(err)
	}
	for i, text := range want.Texts {
		if text != fmt.Sprintf("text %d", 19-i) {
			t.Fatalf("texts not newest-id first: %q", want.Texts)
		}
	}
	// The same rows inserted in reverse id order.
	var rows []rdbms.Row
	src.Scan(func(r rdbms.Row) bool { rows = append(rows, r); return true })
	dst := newTable(t)
	for i := len(rows) - 1; i >= 0; i-- {
		if _, err := dst.Insert(rows[i]); err != nil {
			t.Fatal(err)
		}
	}
	got, err := NewStore(dst).AggregateAt("a1", day0.AddDate(0, 0, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("aggregate depends on row order:\n got %+v\nwant %+v", got, want)
	}
}

// TestNewStoreContinuesIDs: a store over a table that already holds
// reviews — recovered or replicated — assigns ids past the highest one.
func TestNewStoreContinuesIDs(t *testing.T) {
	tbl := newTable(t)
	s := NewStore(tbl)
	for i := range 3 {
		if _, err := s.Submit(validReview("a1", "r", 1+i, day0)); err != nil {
			t.Fatal(err)
		}
	}
	id, err := NewStore(tbl).Submit(validReview("a1", "r", 4, day0))
	if err != nil || id != 4 {
		t.Errorf("id after reopen: %d (%v), want 4", id, err)
	}
}
