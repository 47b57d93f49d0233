package core

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/analytics"
	"repro/internal/classify"
	"repro/internal/compute"
	"repro/internal/contentind"
	"repro/internal/outlets"
	"repro/internal/rdbms"
	"repro/internal/socialind"
)

// MigrationTables are the tables the daily migration snapshots.
var MigrationTables = []string{ArticlesTable, SocialTable, RepliesTable, ReviewsTable}

// RunDailyMigration exports MigrationTables from the hot store into the
// warehouse as one full generation for the given snapshot date, in
// warehouse/<YYYY-MM-DD>/tables.dat. It returns the migrated row count; a
// date already exported fails with rdbms.ErrExists.
func (p *Platform) RunDailyMigration(date time.Time) (int, error) {
	return p.DB.ExportTables(p.warehouseFS, p.warehouseDay(date), MigrationTables...)
}

// warehouseDay is the directory of one date's export.
func (p *Platform) warehouseDay(date time.Time) string {
	return filepath.Join(p.warehouseDir, date.UTC().Format("2006-01-02"))
}

// ArticleRowFacts converts one articles-table row plus its social
// aggregate into an analytics fact.
func factFromRows(article, social rdbms.Row) analytics.ArticleFact {
	f := analytics.ArticleFact{
		ArticleID: article[0].Str(),
		OutletID:  article[1].Str(),
		Rating:    outlets.RatingClass(article[2].Int()),
		Published: article[5].Time(),
		SciRatio:  article[13].Float(),
		HasRefs:   article[14].Bool(),
		IsTopic:   article[15].Bool(),
		Composite: article[16].Float(),
	}
	if social != nil {
		f.Reactions = int(social[1].Int())
	}
	return f
}

// BuildFacts derives the analytics facts for every stored article. Facts
// are ordered by article ID: the heap order depends on which ingestion
// consumer won each insert race, and order-sensitive consumers (the
// consensus experiment's per-article noise draws) must see a reproducible
// sequence.
func (p *Platform) BuildFacts() ([]analytics.ArticleFact, error) {
	articlesTable, err := p.DB.Table(ArticlesTable)
	if err != nil {
		return nil, err
	}
	socialTable, err := p.DB.Table(SocialTable)
	if err != nil {
		return nil, err
	}
	var facts []analytics.ArticleFact
	articlesTable.Scan(func(r rdbms.Row) bool {
		social, err := socialTable.Get(r[0])
		if err != nil {
			social = nil
		}
		facts = append(facts, factFromRows(r, social))
		return true
	})
	sortFacts(facts)
	return facts, nil
}

// sortFacts orders facts by article ID for run-to-run determinism.
func sortFacts(facts []analytics.ArticleFact) {
	sort.Slice(facts, func(i, j int) bool { return facts[i].ArticleID < facts[j].ArticleID })
}

// BuildFactsBetween derives the analytics facts for articles published in
// [from, to), served by a range scan over the ordered `published` index
// rather than a full heap scan — the real-time path for window-scoped
// analytics.
func (p *Platform) BuildFactsBetween(from, to time.Time) ([]analytics.ArticleFact, error) {
	articlesTable, err := p.DB.Table(ArticlesTable)
	if err != nil {
		return nil, err
	}
	socialTable, err := p.DB.Table(SocialTable)
	if err != nil {
		return nil, err
	}
	lo := rdbms.Time(from)
	hi := rdbms.Time(to.Add(-time.Nanosecond)) // Range bounds are inclusive
	var facts []analytics.ArticleFact
	err = articlesTable.Range("published", &lo, &hi, func(r rdbms.Row) bool {
		social, err := socialTable.Get(r[0])
		if err != nil {
			social = nil
		}
		facts = append(facts, factFromRows(r, social))
		return true
	})
	if err != nil {
		return nil, err
	}
	sortFacts(facts)
	return facts, nil
}

// Figure4 computes the newsroom-activity series (paper Figure 4) over the
// window [start, start+days), smoothed with a 7-day moving average like
// the published curves. Facts come from a range scan over the published
// index (see BuildFactsBetween).
func (p *Platform) Figure4(start time.Time, days int) (*analytics.ActivitySeries, error) {
	facts, err := p.BuildFactsBetween(start, start.AddDate(0, 0, days))
	if err != nil {
		return nil, err
	}
	s, err := analytics.NewsroomActivity(facts, start, days)
	if err != nil {
		return nil, err
	}
	return s.Smooth(7), nil
}

// Figure5Engagement computes the social-reactions KDEs (Figure 5 left).
func (p *Platform) Figure5Engagement(gridPoints int) ([]analytics.ClassDensity, error) {
	facts, err := p.BuildFacts()
	if err != nil {
		return nil, err
	}
	return analytics.EngagementKDE(facts, gridPoints)
}

// Figure5Evidence computes the scientific-reference-ratio KDEs (Figure 5
// right).
func (p *Platform) Figure5Evidence(gridPoints int) ([]analytics.ClassDensity, error) {
	facts, err := p.BuildFacts()
	if err != nil {
		return nil, err
	}
	return analytics.EvidenceKDE(facts, gridPoints)
}

// RunConsensusExperiment runs the indicator-assisted consensus experiment
// (claim C2) over the stored articles.
func (p *Platform) RunConsensusExperiment(cfg analytics.ConsensusConfig) (analytics.ConsensusResult, error) {
	facts, err := p.BuildFacts()
	if err != nil {
		return analytics.ConsensusResult{}, err
	}
	return analytics.ConsensusExperiment(facts, cfg)
}

// TrainReport summarises a periodic model-training run.
type TrainReport struct {
	// Examples is the number of training examples used.
	Examples int
	// PositiveShare is the share of positive labels.
	PositiveShare float64
	// TrainAccuracy is the accuracy on the training set (sanity signal;
	// weak labels have no held-out gold).
	TrainAccuracy float64
}

// TrainClickbaitModel trains the clickbait classifier over the full stored
// article history using distant supervision: titles whose lexicon score is
// extreme (>= 0.6 or <= 0.15) become weak labels. Feature extraction runs
// in parallel on the compute pool (the paper's Spark role). The
// trained model is attached to the engine; the stored rows stay as they
// were until ReindexCorpus re-evaluates them (RunDaily does so after its
// training stages).
func (p *Platform) TrainClickbaitModel(pool *compute.Pool, seed int64) (*TrainReport, error) {
	articlesTable, err := p.DB.Table(ArticlesTable)
	if err != nil {
		return nil, err
	}
	var titles []string
	articlesTable.Scan(func(r rdbms.Row) bool {
		titles = append(titles, r[4].Str())
		return true
	})
	if len(titles) == 0 {
		return nil, fmt.Errorf("train clickbait: %w", ErrNotIngested)
	}
	features := p.Engine.ClickbaitFeatures()
	labelled, err := compute.Map(pool, titles, func(title string) (classify.Example, error) {
		score := contentind.LexiconClickbaitScore(title)
		ex := classify.Example{X: features.Extract(title)}
		switch {
		case score >= 0.6:
			ex.Y = true
		case score <= 0.15:
			ex.Y = false
		default:
			ex.X = nil // ambiguous: dropped below
		}
		return ex, nil
	})
	if err != nil {
		return nil, err
	}
	var data []classify.Example
	positives := 0
	for _, ex := range labelled {
		if ex.X == nil {
			continue
		}
		data = append(data, ex)
		if ex.Y {
			positives++
		}
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("train clickbait: no confident weak labels: %w", ErrNotIngested)
	}
	model, err := classify.TrainLogReg(data, classify.LogRegConfig{Dim: features.Dim(), Seed: seed})
	if err != nil {
		return nil, err
	}
	correct := 0
	for _, ex := range data {
		if model.Predict(ex.X) == ex.Y {
			correct++
		}
	}
	p.Engine.SetClickbaitModel(model)
	return &TrainReport{
		Examples:      len(data),
		PositiveShare: float64(positives) / float64(len(data)),
		TrainAccuracy: float64(correct) / float64(len(data)),
	}, nil
}

// TrainStanceModel trains the stance naive Bayes over the stored reply
// history, weak-labelled by the deterministic stance lexicon, and attaches
// it to the engine. The weak labels are recomputed from the reply texts at
// training time rather than read from the stored stance column: that
// column is rewritten by the serving classifier (at ingest and by corpus
// re-indexing), so training on it would feed the model its own previous
// predictions back — a self-training loop where label drift compounds
// across retrain cycles. The stored reply stances stay as they were until
// ReindexCorpus re-classifies them.
func (p *Platform) TrainStanceModel(pool *compute.Pool) (*TrainReport, error) {
	repliesTable, err := p.DB.Table(RepliesTable)
	if err != nil {
		return nil, err
	}
	var texts []string
	repliesTable.Scan(func(r rdbms.Row) bool {
		texts = append(texts, r[2].Str())
		return true
	})
	if len(texts) == 0 {
		return nil, fmt.Errorf("train stance: %w", ErrNotIngested)
	}
	// Tokenise and weak-label in parallel, then feed the (inherently
	// sequential) NB accumulator. A fresh model-less classifier is the pure
	// lexicon labeller.
	lexicon := socialind.NewStanceClassifier()
	rows, err := compute.Map(pool, texts, func(text string) (struct {
		tokens []string
		class  string
	}, error) {
		return struct {
			tokens []string
			class  string
		}{socialind.Tokens(text), lexicon.Classify(text).String()}, nil
	})
	if err != nil {
		return nil, err
	}
	nb := classify.NewNaiveBayes(0.5)
	positives := 0
	for _, r := range rows {
		nb.Observe(r.tokens, r.class)
		if r.class == "support" {
			positives++
		}
	}
	correct := 0
	for _, r := range rows {
		if class, _ := nb.Predict(r.tokens); class == r.class {
			correct++
		}
	}
	p.Engine.SetStanceModel(nb)
	return &TrainReport{
		Examples:      len(rows),
		PositiveShare: float64(positives) / float64(len(rows)),
		TrainAccuracy: float64(correct) / float64(len(rows)),
	}, nil
}

// Assessment is the single-article view (paper Figure 3): stored
// indicators plus the expert-review aggregate.
type Assessment struct {
	// ArticleID, OutletID, URL and Title identify the article.
	ArticleID, OutletID, URL, Title string
	// Rating is the outlet's external rating class.
	Rating outlets.RatingClass
	// Published is the publication time.
	Published time.Time
	// Clickbait, Subjectivity, ReadingGrade, Composite are the content
	// scores.
	Clickbait, Subjectivity, ReadingGrade, Composite float64
	// HasByline reports author attribution.
	HasByline bool
	// InternalRefs, ExternalRefs, SciRefs count classified references.
	InternalRefs, ExternalRefs, SciRefs int
	// SciRatio is the scientific-reference ratio.
	SciRatio float64
	// Reactions, Replies, Reshares, Likes are the social aggregates.
	Reactions, Replies, Reshares, Likes int
	// Support, Deny, Comment are the reply stance counts.
	Support, Deny, Comment int
	// ExpertOverall is the time-weighted expert score (0 when
	// unreviewed); ExpertCount the number of reviews.
	ExpertOverall float64
	ExpertCount   int
}

// AssessURL returns the assessment for an ingested article URL.
func (p *Platform) AssessURL(url string) (*Assessment, error) {
	var a *Assessment
	err := p.articles.ViewEq("url", rdbms.String(url), func(r rdbms.Row) bool {
		a = assessmentFromRow(r)
		return false
	})
	if err != nil || a == nil {
		return nil, fmt.Errorf("url %q: %w", url, ErrNotIngested)
	}
	p.attachAggregates(a)
	return a, nil
}

// AssessID returns the assessment for an ingested article ID. The row is
// read in place (no clone) — this is the per-request real-time path.
func (p *Platform) AssessID(id string) (*Assessment, error) {
	var a *Assessment
	err := p.articles.View(rdbms.String(id), func(r rdbms.Row) {
		a = assessmentFromRow(r)
	})
	if err != nil {
		return nil, fmt.Errorf("article %q: %w", id, ErrNotIngested)
	}
	p.attachAggregates(a)
	return a, nil
}

func assessmentFromRow(r rdbms.Row) *Assessment {
	a := &Assessment{
		ArticleID:    r[0].Str(),
		OutletID:     r[1].Str(),
		Rating:       outlets.RatingClass(r[2].Int()),
		URL:          r[3].Str(),
		Title:        r[4].Str(),
		Published:    r[5].Time(),
		Clickbait:    r[6].Float(),
		Subjectivity: r[7].Float(),
		ReadingGrade: r[8].Float(),
		HasByline:    r[9].Bool(),
		InternalRefs: int(r[10].Int()),
		ExternalRefs: int(r[11].Int()),
		SciRefs:      int(r[12].Int()),
		SciRatio:     r[13].Float(),
		Composite:    r[16].Float(),
	}
	return a
}

// attachAggregates fills the social and expert-review aggregates of an
// assessment, reading the social row in place.
func (p *Platform) attachAggregates(a *Assessment) {
	_ = p.social.View(rdbms.String(a.ArticleID), func(social rdbms.Row) {
		a.Reactions = int(social[1].Int())
		a.Replies = int(social[2].Int())
		a.Reshares = int(social[3].Int())
		a.Likes = int(social[4].Int())
		a.Support = int(social[5].Int())
		a.Deny = int(social[6].Int())
		a.Comment = int(social[7].Int())
	})
	if agg, err := p.ReviewAggregate(a.ArticleID); err == nil {
		a.ExpertOverall = agg.Overall
		a.ExpertCount = agg.Count
	}
}
