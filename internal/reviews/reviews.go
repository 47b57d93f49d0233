// Package reviews implements the expert-review subsystem of paper §3.2:
// domain experts annotate articles on seven criteria using a Likert scale
// (1 = very low quality .. 5 = very high quality), optionally attach
// free-text reviews, and the system displays a weighted, time-sensitive
// average per criterion — recent reviews and more reputable reviewers
// weigh more.
//
// Reviews are rows of one store table (see Schema): they are as durable,
// replicated and exported as every other table, and the Store is only a
// view that validates writes and aggregates reads.
package reviews

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/rdbms"
)

// Criterion is one of the seven review criteria (the list used by
// fact-checking portals like ScienceFeedback, per the paper).
type Criterion uint8

// The seven criteria, in paper order.
const (
	// FactualAccuracy: are the claims factually correct?
	FactualAccuracy Criterion = iota
	// ScientificUnderstanding: does the article understand the science?
	ScientificUnderstanding
	// LogicReasoning: is the argumentation sound?
	LogicReasoning
	// PrecisionClarity: is the writing precise and clear?
	PrecisionClarity
	// SourcesQuality: are the cited sources appropriate?
	SourcesQuality
	// Fairness: is the coverage fair and balanced?
	Fairness
	// Clickbaitness: does the title oversell the content? (reverse-coded:
	// 5 = not clickbait at all.)
	Clickbaitness

	// NumCriteria is the number of criteria.
	NumCriteria = 7
)

// String returns the criterion label.
func (c Criterion) String() string {
	switch c {
	case FactualAccuracy:
		return "factual-accuracy"
	case ScientificUnderstanding:
		return "scientific-understanding"
	case LogicReasoning:
		return "logic-reasoning"
	case PrecisionClarity:
		return "precision-clarity"
	case SourcesQuality:
		return "sources-quality"
	case Fairness:
		return "fairness"
	case Clickbaitness:
		return "clickbaitness"
	default:
		return "unknown"
	}
}

// Sentinel errors.
var (
	// ErrBadScore is returned for Likert scores outside 1..5.
	ErrBadScore = errors.New("reviews: score outside Likert range 1..5")
	// ErrNotFound is returned for articles without reviews.
	ErrNotFound = errors.New("reviews: not found")
	// ErrIncomplete is returned when a review does not score all criteria.
	ErrIncomplete = errors.New("reviews: all seven criteria required")
)

// halfLife is the review-weight half-life: a review this old counts half
// as much as a fresh one.
const halfLife = 30 * 24 * time.Hour

// Review is one expert's annotation of one article.
type Review struct {
	// ID is assigned by the store.
	ID int64
	// ArticleID identifies the reviewed article.
	ArticleID string
	// Reviewer identifies the expert.
	Reviewer string
	// Scores holds the Likert score (1..5) per criterion.
	Scores [NumCriteria]int
	// Text is the optional free-text review.
	Text string
	// Time is when the review was submitted.
	Time time.Time
	// ReviewerWeight scales this reviewer's influence (default 1).
	ReviewerWeight float64
}

// Validate checks the Likert ranges.
func (r *Review) Validate() error {
	for c, s := range r.Scores {
		if s < 1 || s > 5 {
			return fmt.Errorf("criterion %v score %d: %w", Criterion(c), s, ErrBadScore)
		}
	}
	return nil
}

// Mean returns the unweighted mean over the seven criteria.
func (r *Review) Mean() float64 {
	sum := 0
	for _, s := range r.Scores {
		sum += s
	}
	return float64(sum) / NumCriteria
}

// Aggregate is the weighted, time-sensitive summary of an article's
// reviews (paper §3.2).
type Aggregate struct {
	// PerCriterion is the weighted average score (1..5) per criterion.
	PerCriterion [NumCriteria]float64
	// Overall is the mean of the per-criterion averages.
	Overall float64
	// Count is the number of reviews aggregated.
	Count int
	// Texts are the free-text reviews, newest first.
	Texts []string
}

// Columns of the review table, in Schema order: the seven scores follow
// time in Criterion order.
const (
	colID = iota
	colArticle
	colReviewer
	colTime
	colScores
	colWeight = colScores + NumCriteria
	colText   = colWeight + 1
)

// Schema is the review table's layout: int primary key id, article_id,
// reviewer, time, one int column per criterion, weight and text. Every
// read goes through article_id, so its owner must hash-index it.
func Schema() *rdbms.Schema {
	cols := []rdbms.Column{
		{Name: "id", Type: rdbms.TInt},
		{Name: "article_id", Type: rdbms.TString, NotNull: true},
		{Name: "reviewer", Type: rdbms.TString, NotNull: true},
		{Name: "time", Type: rdbms.TTime, NotNull: true},
	}
	for c := Criterion(0); c < NumCriteria; c++ {
		cols = append(cols, rdbms.Column{Name: c.String(), Type: rdbms.TInt, NotNull: true})
	}
	cols = append(cols,
		rdbms.Column{Name: "weight", Type: rdbms.TFloat, NotNull: true},
		rdbms.Column{Name: "text", Type: rdbms.TString})
	s, err := rdbms.NewSchema(cols, "id")
	if err != nil {
		panic(err) // the column list above is fixed
	}
	return s
}

// Store is the review view over one table laid out as Schema. Safe for
// concurrent use.
type Store struct {
	t      *rdbms.Table
	lastID atomic.Int64
}

// NewStore views t. New ids continue past the highest stored one, so a
// recovered or replicated table never sees an id reused.
func NewStore(t *rdbms.Table) *Store {
	s := &Store{t: t}
	t.Scan(func(r rdbms.Row) bool {
		s.lastID.Store(max(s.lastID.Load(), r[colID].Int()))
		return true
	})
	return s
}

// Submit validates a review and inserts it, returning its assigned ID. On
// a durable table the insert is write-ahead logged.
func (s *Store) Submit(r Review) (int64, error) {
	if err := r.Validate(); err != nil {
		return 0, err
	}
	if r.ArticleID == "" || r.Reviewer == "" {
		return 0, fmt.Errorf("article and reviewer required: %w", ErrIncomplete)
	}
	if r.ReviewerWeight <= 0 {
		r.ReviewerWeight = 1
	}
	id := s.lastID.Add(1)
	row := make(rdbms.Row, colText+1)
	row[colID] = rdbms.Int(id)
	row[colArticle] = rdbms.String(r.ArticleID)
	row[colReviewer] = rdbms.String(r.Reviewer)
	row[colTime] = rdbms.Time(r.Time)
	for c, score := range r.Scores {
		row[colScores+c] = rdbms.Int(int64(score))
	}
	row[colWeight] = rdbms.Float(r.ReviewerWeight)
	row[colText] = rdbms.String(r.Text)
	if _, err := s.t.Insert(row); err != nil {
		return 0, err
	}
	return id, nil
}

// reviewOf decodes one stored row.
func reviewOf(row rdbms.Row) Review {
	r := Review{
		ID:             row[colID].Int(),
		ArticleID:      row[colArticle].Str(),
		Reviewer:       row[colReviewer].Str(),
		Time:           row[colTime].Time(),
		ReviewerWeight: row[colWeight].Float(),
		Text:           row[colText].Str(),
	}
	for c := range r.Scores {
		r.Scores[c] = int(row[colScores+c].Int())
	}
	return r
}

// ForArticle returns an article's reviews ordered by (time, id), oldest
// first.
func (s *Store) ForArticle(articleID string) []Review {
	var out []Review
	// ViewEq fails only without the article_id hash index Schema requires.
	_ = s.t.ViewEq("article_id", rdbms.String(articleID), func(row rdbms.Row) bool {
		out = append(out, reviewOf(row))
		return true
	})
	slices.SortFunc(out, byTimeThenID)
	return out
}

// byTimeThenID orders reviews oldest first, the lower id first among
// equal times.
func byTimeThenID(a, b Review) int {
	if c := a.Time.Compare(b.Time); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// errNoReviews is the allocation-free not-found result for unreviewed
// articles on the assessment hot path.
var errNoReviews = fmt.Errorf("article has no reviews: %w", ErrNotFound)

// AggregateAt computes the weighted, time-sensitive aggregate for an
// article as of time now. Review weight = ReviewerWeight *
// 2^(-age/halfLife); future-dated reviews count as fresh. The reviews are
// folded in (time, id) order, so the result is a function of the rows
// alone: the same on a primary, its followers and after recovery.
func (s *Store) AggregateAt(articleID string, now time.Time) (Aggregate, error) {
	reviews := s.ForArticle(articleID)
	if len(reviews) == 0 {
		return Aggregate{}, errNoReviews
	}
	return aggregate(reviews, now), nil
}

// aggregate folds reviews, ordered by (time, id), into their aggregate.
func aggregate(reviews []Review, now time.Time) Aggregate {
	var agg Aggregate
	agg.Count = len(reviews)
	var weightSum float64
	var weighted [NumCriteria]float64
	// Newest first for the texts, the higher id first among equal times.
	for i := len(reviews) - 1; i >= 0; i-- {
		if reviews[i].Text != "" {
			agg.Texts = append(agg.Texts, reviews[i].Text)
		}
	}
	for _, r := range reviews {
		age := max(now.Sub(r.Time), 0)
		w := r.ReviewerWeight * math.Exp2(-age.Hours()/halfLife.Hours())
		weightSum += w
		for c, score := range r.Scores {
			weighted[c] += w * float64(score)
		}
	}
	if weightSum == 0 {
		weightSum = 1
	}
	var total float64
	for c := range weighted {
		agg.PerCriterion[c] = weighted[c] / weightSum
		total += agg.PerCriterion[c]
	}
	agg.Overall = total / NumCriteria
	return agg
}

// Quality is an outlet's review-derived quality: the mean Overall
// aggregate over its reviewed articles.
type Quality struct {
	// Score is the mean Overall aggregate, on the 1..5 Likert scale.
	Score float64
	// Articles is the number of reviewed articles behind Score.
	Articles int
}

// OutletQuality scores outlets from their articles' reviews — the
// expert-review path for outlet quality ranking (paper §3.3: "the quality
// of an outlet is either computed using the expert reviews or imported
// from external sources"). It walks the table once, grouping rows by
// article; outletOf maps each reviewed article to its outlet, and an
// article it reports false for is left out. Articles are folded in id
// order, so the scores do not depend on the table's row order.
func (s *Store) OutletQuality(now time.Time, outletOf func(articleID string) (string, bool)) map[string]Quality {
	byArticle := map[string][]Review{}
	s.t.Scan(func(row rdbms.Row) bool {
		r := reviewOf(row)
		byArticle[r.ArticleID] = append(byArticle[r.ArticleID], r)
		return true
	})
	out := map[string]Quality{}
	for _, id := range slices.Sorted(maps.Keys(byArticle)) {
		outlet, ok := outletOf(id)
		if !ok {
			continue
		}
		rs := byArticle[id]
		slices.SortFunc(rs, byTimeThenID)
		q := out[outlet]
		q.Score += aggregate(rs, now).Overall
		q.Articles++
		out[outlet] = q
	}
	for outlet, q := range out {
		q.Score /= float64(q.Articles)
		out[outlet] = q
	}
	return out
}
