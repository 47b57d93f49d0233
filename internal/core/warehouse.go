package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/compute"
	"repro/internal/rdbms"
	"repro/internal/reviews"
	"repro/internal/textutil"
	"repro/internal/topics"
)

// This file implements the warehouse-side analytics and training jobs of
// paper §3.3: "our system periodically trains Machine Learning models on
// top of the Distributed Storage, accessing the full history of our data",
// and the ad-hoc replay of historical snapshots into analytics.

// ReplayWarehouse imports one daily export from the warehouse into a fresh
// in-memory database — the "ad-hoc querying on historical data" path. It
// returns the scratch database and the imported row count. A date never
// exported fails with an error satisfying errors.Is(err, fs.ErrNotExist).
func (p *Platform) ReplayWarehouse(date time.Time) (*rdbms.DB, int, error) {
	dir := p.warehouseDay(date)
	scratch, n, err := rdbms.ImportTables(p.warehouseFS, dir)
	if err != nil {
		return nil, 0, fmt.Errorf("replay %s: %w", dir, err)
	}
	return scratch, n, nil
}

// TopicModelReport summarises a topic-discovery training run.
type TopicModelReport struct {
	// Documents is the number of titles clustered.
	Documents int
	// Nodes and Leaves count the discovered hierarchy.
	Nodes, Leaves int
	// Root is the discovered topic tree.
	Root *cluster.TopicNode
	// Tagger assigns the discovered topics to new documents, each node
	// labelled by its most characteristic terms.
	Tagger *topics.HierarchyTagger
}

// TrainTopicModel runs the unsupervised probabilistic hierarchical topic
// clustering of §3.3 over a warehouse snapshot: titles are tokenised
// in parallel on the compute pool (the Spark role), vectorised with
// TF-IDF and split by divisive spherical k-means into a generic→specific
// topic tree.
func (p *Platform) TrainTopicModel(pool *compute.Pool, date time.Time, cfg cluster.HierarchyConfig) (*TopicModelReport, error) {
	scratch, _, err := p.ReplayWarehouse(date)
	if err != nil {
		return nil, err
	}
	articlesTable, err := scratch.Table(ArticlesTable)
	if err != nil {
		return nil, err
	}
	// Discover is order-sensitive and heap order depends on which pipeline
	// shard won each insert, so titles go in article-id order.
	type titled struct{ id, title string }
	var rows []titled
	articlesTable.Scan(func(r rdbms.Row) bool {
		rows = append(rows, titled{r[0].Str(), r[4].Str()})
		return true
	})
	sort.Slice(rows, func(i, j int) bool { return rows[i].id < rows[j].id })
	titles := make([]string, len(rows))
	for i, r := range rows {
		titles[i] = r.title
	}
	if len(titles) == 0 {
		return nil, fmt.Errorf("train topics: %w", ErrNotIngested)
	}
	docs, err := compute.Map(pool, titles, func(title string) ([]string, error) {
		return textutil.StemAll(textutil.ContentWords(title)), nil
	})
	if err != nil {
		return nil, err
	}
	root, tfidf, err := topics.Discover(docs, cfg, 2)
	if err != nil {
		return nil, err
	}
	return &TopicModelReport{
		Documents: len(docs),
		Nodes:     cluster.NodeCount(root),
		Leaves:    len(cluster.Leaves(root)),
		Root:      root,
		Tagger:    topics.NewHierarchyTagger(root, tfidf),
	}, nil
}

// OutletQuality is one outlet's review-derived quality estimate (paper
// §3.3: "The quality of an outlet is either computed using the expert
// reviews or imported from external sources").
type OutletQuality struct {
	// OutletID identifies the outlet.
	OutletID string
	// Score is the review-derived quality on the 1..5 Likert scale.
	Score float64
	// Reviews is the number of reviewed articles backing the score.
	Reviews int
}

// OutletQualityFromReviews computes each outlet's quality from the expert
// reviews of its articles (time-weighted, like the per-article aggregate):
// one walk of the reviews table, then one articles lookup per reviewed
// article. Outlets without any reviewed article are omitted.
func (p *Platform) OutletQualityFromReviews() []OutletQuality {
	byOutlet := p.reviews.OutletQuality(p.Clock(), func(articleID string) (outlet string, ok bool) {
		ok = p.articles.View(rdbms.String(articleID), func(r rdbms.Row) { outlet = r[1].Str() }) == nil
		return outlet, ok
	})
	out := make([]OutletQuality, 0, len(byOutlet))
	for outletID, q := range byOutlet {
		out = append(out, OutletQuality{OutletID: outletID, Score: q.Score, Reviews: q.Articles})
	}
	sortOutletQuality(out)
	return out
}

// SegmentOutletsByReviewQuality groups review-scored outlets into `bands`
// quality segments (best first) — the outlet quality-based segmentation of
// §3.3 when no external ranking is available.
func (p *Platform) SegmentOutletsByReviewQuality(bands int) ([][]OutletQuality, error) {
	if bands <= 0 {
		bands = 5
	}
	scored := p.OutletQualityFromReviews()
	if len(scored) == 0 {
		return nil, fmt.Errorf("segment outlets: no reviewed outlets: %w", reviews.ErrNotFound)
	}
	if bands > len(scored) {
		bands = len(scored)
	}
	out := make([][]OutletQuality, bands)
	// Equal-count bands over the score-sorted list; remainders widen the
	// leading (best) bands.
	per, rem := len(scored)/bands, len(scored)%bands
	idx := 0
	for b := 0; b < bands; b++ {
		n := per
		if b < rem {
			n++
		}
		out[b] = scored[idx : idx+n]
		idx += n
	}
	return out, nil
}

// sortOutletQuality orders by score descending, then outlet ID for
// determinism.
func sortOutletQuality(s []OutletQuality) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].Score != s[j].Score {
			return s[i].Score > s[j].Score
		}
		return s[i].OutletID < s[j].OutletID
	})
}
