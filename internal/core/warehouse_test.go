package core

import (
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/compute"
	"repro/internal/rdbms"
	"repro/internal/reviews"
	"repro/internal/synth"
)

// tableImage is everything a warehouse day must carry of one table.
type tableImage struct {
	Partitions int
	Schema     *rdbms.Schema
	Indexes    map[string]rdbms.IndexKind
	Rows       []rdbms.Row // in primary-key order
}

// migratedImages captures the MigrationTables of db.
func migratedImages(t *testing.T, db *rdbms.DB) map[string]tableImage {
	t.Helper()
	out := map[string]tableImage{}
	for _, name := range MigrationTables {
		tbl, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		img := tableImage{Partitions: tbl.Partitions(), Schema: tbl.Schema(), Indexes: map[string]rdbms.IndexKind{}}
		for _, c := range tbl.Schema().Cols {
			if kind, ok := tbl.IndexKindOf(c.Name); ok {
				img.Indexes[c.Name] = kind
			}
		}
		tbl.Scan(func(r rdbms.Row) bool {
			img.Rows = append(img.Rows, r.Clone())
			return true
		})
		pk := tbl.Schema().PK
		sort.Slice(img.Rows, func(i, j int) bool {
			c, _ := img.Rows[i][pk].Compare(img.Rows[j][pk])
			return c < 0
		})
		out[name] = img
	}
	return out
}

// imagesIdentical compares two table images: rows with rdbms.Row.Identical,
// the rest with reflect.DeepEqual.
func imagesIdentical(a, b tableImage) bool {
	if !rowsIdentical(a.Rows, b.Rows) {
		return false
	}
	a.Rows, b.Rows = nil, nil
	return reflect.DeepEqual(a, b)
}

func TestReplayWarehouseRoundTrip(t *testing.T) {
	p, _ := testPlatform(t, 40, 6, 0.3)
	date := synth.WindowStart.AddDate(0, 0, 6)
	exported, err := p.RunDailyMigration(date)
	if err != nil {
		t.Fatal(err)
	}
	scratch, imported, err := p.ReplayWarehouse(date)
	if err != nil {
		t.Fatal(err)
	}
	if imported != exported {
		t.Errorf("imported %d of %d rows", imported, exported)
	}
	if names := scratch.TableNames(); len(names) != len(MigrationTables) {
		t.Errorf("replayed tables %v, want %v", names, MigrationTables)
	}
	got, want := migratedImages(t, scratch), migratedImages(t, p.DB)
	for _, name := range MigrationTables {
		if !imagesIdentical(got[name], want[name]) {
			t.Errorf("%s: replayed table differs from the hot store", name)
		}
	}
}

// TestWarehouseSurvivesRestart exports from a durable platform, closes it
// and opens a new one on the same data dir: the day replays unchanged,
// from <data-dir>/warehouse/<date>/tables.dat.
func TestWarehouseSurvivesRestart(t *testing.T) {
	const days = 4
	dir := t.TempDir()
	date := synth.WindowStart.AddDate(0, 0, days)
	cfg := Config{Clock: func() time.Time { return date }, DataDir: dir}
	p, err := NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := synth.GenerateWorld(synth.Config{Seed: 58, Days: days, RateScale: 0.2, ReactionScale: 0.3})
	if _, err := p.IngestWorld(w); err != nil {
		t.Fatal(err)
	}
	exported, err := p.RunDailyMigration(date)
	if err != nil {
		t.Fatal(err)
	}
	want := migratedImages(t, p.DB)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "warehouse", "2020-01-19", "tables.dat")); err != nil {
		t.Fatal(err)
	}

	p2, err := NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	scratch, imported, err := p2.ReplayWarehouse(date)
	if err != nil {
		t.Fatalf("replay after restart: %v", err)
	}
	if imported != exported {
		t.Errorf("imported %d of %d rows", imported, exported)
	}
	if got := migratedImages(t, scratch); !maps.EqualFunc(got, want, imagesIdentical) {
		t.Error("day replayed after a restart differs from the one exported")
	}
	if _, err := p2.RunDailyMigration(date); !errors.Is(err, rdbms.ErrExists) {
		t.Errorf("re-export after restart: %v, want rdbms.ErrExists", err)
	}
}

func TestReplayWarehouseMissingSnapshot(t *testing.T) {
	p, _ := testPlatform(t, 41, 3, 0.2)
	if _, _, err := p.ReplayWarehouse(synth.WindowStart); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing snapshot: %v", err)
	}
}

func TestWarehouseFactsMatchHotStore(t *testing.T) {
	p, _ := testPlatform(t, 42, 6, 0.3)
	date := synth.WindowStart.AddDate(0, 0, 6)
	if _, err := p.RunDailyMigration(date); err != nil {
		t.Fatal(err)
	}
	hot, err := p.BuildFacts()
	if err != nil {
		t.Fatal(err)
	}
	cold, err := p.BuildFactsFromWarehouse(date)
	if err != nil {
		t.Fatal(err)
	}
	if len(hot) != len(cold) {
		t.Fatalf("fact counts: %d vs %d", len(hot), len(cold))
	}
	hotByID := map[string]int{}
	for _, f := range hot {
		hotByID[f.ArticleID] = f.Reactions
	}
	for _, f := range cold {
		reactions, ok := hotByID[f.ArticleID]
		if !ok {
			t.Fatalf("article %s missing from hot store", f.ArticleID)
		}
		if f.Reactions != reactions {
			t.Errorf("article %s reactions: %d vs %d", f.ArticleID, f.Reactions, reactions)
		}
	}
}

func TestTrainTopicModelFromWarehouse(t *testing.T) {
	p, _ := testPlatform(t, 43, 10, 0.5)
	date := synth.WindowStart.AddDate(0, 0, 10)
	if _, err := p.RunDailyMigration(date); err != nil {
		t.Fatal(err)
	}
	pool := compute.NewPool(4, nil)
	rep, err := p.TrainTopicModel(pool, date, cluster.HierarchyConfig{
		Branch: 2, MaxDepth: 3, MinLeaf: 10, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Documents < 100 {
		t.Errorf("too few documents: %d", rep.Documents)
	}
	if rep.Leaves < 2 {
		t.Errorf("degenerate hierarchy: %d leaves of %d nodes", rep.Leaves, rep.Nodes)
	}
	if rep.Root == nil || len(rep.Root.Members) != rep.Documents {
		t.Error("root does not cover the corpus")
	}
	if rep.Tagger == nil {
		t.Fatal("no tagger attached")
	}
	// The tagger must produce only labelled, positive-probability
	// assignments for a corpus-like document.
	tags := rep.Tagger.Tag("new covid-19 vaccine trial reports measured results")
	for _, a := range tags {
		if a.Label == "" || a.Prob <= 0 {
			t.Errorf("bad assignment: %+v", a)
		}
	}
}

// TestTrainTopicModelIndependentOfShardCount trains on the same world
// ingested through one pipeline shard and through four. Heap order differs
// between the two (it follows which shard won each insert); the topic tree
// must not.
func TestTrainTopicModelIndependentOfShardCount(t *testing.T) {
	const days = 8
	w := synth.GenerateWorld(synth.Config{Seed: 1, Days: days, RateScale: 0.3, ReactionScale: 0.2})
	date := synth.WindowStart.AddDate(0, 0, days)
	tree := func(shards int) string {
		p, err := NewPlatform(Config{
			Clock:        func() time.Time { return date },
			StreamShards: shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.IngestWorld(w); err != nil {
			t.Fatal(err)
		}
		if _, err := p.RunDailyMigration(date); err != nil {
			t.Fatal(err)
		}
		rep, err := p.TrainTopicModel(compute.NewPool(2, nil), date, cluster.HierarchyConfig{
			Branch: 2, MaxDepth: 3, MinLeaf: 10, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "nodes %d leaves %d\n", rep.Nodes, rep.Leaves)
		var walk func(n *cluster.TopicNode)
		walk = func(n *cluster.TopicNode) {
			fmt.Fprintf(&b, "%s %q %d\n", n.ID, rep.Tagger.Label(n.ID), len(n.Members))
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(rep.Root)
		return b.String()
	}
	one, four := tree(1), tree(4)
	if one != four {
		t.Errorf("topic tree depends on the shard count:\n1 shard:\n%s\n4 shards:\n%s", one, four)
	}
}

func TestTrainTopicModelMissingSnapshot(t *testing.T) {
	p, _ := testPlatform(t, 44, 3, 0.2)
	pool := compute.NewPool(2, nil)
	if _, err := p.TrainTopicModel(pool, synth.WindowStart, cluster.HierarchyConfig{}); err == nil {
		t.Error("expected error for missing snapshot")
	}
}

func TestOutletQualityFromReviews(t *testing.T) {
	p, w := testPlatform(t, 45, 6, 0.3)
	now := p.Clock()

	// Review two articles of one outlet high and one article of another
	// outlet low.
	byOutlet := map[string][]string{}
	for _, a := range w.Articles {
		byOutlet[a.OutletID] = append(byOutlet[a.OutletID], a.ID)
	}
	var outletA, outletB string
	for id, arts := range byOutlet {
		if len(arts) >= 2 && outletA == "" {
			outletA = id
		} else if len(arts) >= 1 && id != outletA && outletB == "" {
			outletB = id
		}
	}
	if outletA == "" || outletB == "" {
		t.Skip("world too small for two outlets")
	}
	submit := func(articleID string, score int) {
		r := reviews.Review{ArticleID: articleID, Reviewer: "e", Time: now}
		for c := range r.Scores {
			r.Scores[c] = score
		}
		if _, err := p.SubmitReview(r); err != nil {
			t.Fatal(err)
		}
	}
	submit(byOutlet[outletA][0], 5)
	submit(byOutlet[outletA][1], 4)
	submit(byOutlet[outletB][0], 2)

	scored := p.OutletQualityFromReviews()
	if len(scored) != 2 {
		t.Fatalf("scored outlets: %+v", scored)
	}
	if scored[0].OutletID != outletA || scored[1].OutletID != outletB {
		t.Errorf("ordering: %+v", scored)
	}
	if scored[0].Score <= scored[1].Score {
		t.Errorf("scores: %+v", scored)
	}
	if scored[0].Reviews != 2 || scored[1].Reviews != 1 {
		t.Errorf("review counts: %+v", scored)
	}

	segments, err := p.SegmentOutletsByReviewQuality(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(segments) != 2 || segments[0][0].OutletID != outletA {
		t.Errorf("segments: %+v", segments)
	}
}

func TestSegmentOutletsNoReviews(t *testing.T) {
	p, _ := testPlatform(t, 46, 3, 0.2)
	if _, err := p.SegmentOutletsByReviewQuality(3); err == nil {
		t.Error("expected error with no reviews")
	}
}

func TestSegmentBandsClamped(t *testing.T) {
	p, w := testPlatform(t, 47, 4, 0.2)
	now := p.Clock()
	r := reviews.Review{ArticleID: w.Articles[0].ID, Reviewer: "e", Time: now}
	for c := range r.Scores {
		r.Scores[c] = 3
	}
	if _, err := p.SubmitReview(r); err != nil {
		t.Fatal(err)
	}
	segments, err := p.SegmentOutletsByReviewQuality(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(segments) != 1 {
		t.Errorf("bands should clamp to scored outlets: %d", len(segments))
	}
}

func TestBuildFactsBetweenMatchesFilteredScan(t *testing.T) {
	p, _ := testPlatform(t, 48, 10, 0.4)
	from := synth.WindowStart.AddDate(0, 0, 2)
	to := synth.WindowStart.AddDate(0, 0, 7)

	ranged, err := p.BuildFactsBetween(from, to)
	if err != nil {
		t.Fatal(err)
	}
	all, err := p.BuildFacts()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, f := range all {
		if !f.Published.Before(from) && f.Published.Before(to) {
			want[f.ArticleID] = true
		}
	}
	if len(ranged) != len(want) {
		t.Fatalf("range facts: %d want %d", len(ranged), len(want))
	}
	for _, f := range ranged {
		if !want[f.ArticleID] {
			t.Errorf("article %s outside window (%v)", f.ArticleID, f.Published)
		}
	}
}

func TestBuildFactsBetweenEmptyWindow(t *testing.T) {
	p, _ := testPlatform(t, 49, 5, 0.2)
	from := synth.WindowStart.AddDate(1, 0, 0)
	facts, err := p.BuildFactsBetween(from, from.AddDate(0, 0, 5))
	if err != nil {
		t.Fatal(err)
	}
	if len(facts) != 0 {
		t.Errorf("facts in empty window: %d", len(facts))
	}
}

func TestRunDailyFullCycle(t *testing.T) {
	p, _ := testPlatform(t, 57, 10, 0.5)
	pool := compute.NewPool(4, nil)
	date := synth.WindowStart.AddDate(0, 0, 10)
	rep, err := p.RunDaily(pool, date)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MigratedRows == 0 {
		t.Error("nothing migrated")
	}
	if rep.Clickbait == nil || rep.Clickbait.Examples == 0 {
		t.Errorf("clickbait stage skipped: %+v", rep.Clickbait)
	}
	if rep.Stance == nil || rep.Stance.Examples == 0 {
		t.Errorf("stance stage skipped: %+v", rep.Stance)
	}
	if rep.Topics == nil || rep.Topics.Leaves < 2 {
		t.Errorf("topic stage: %+v", rep.Topics)
	}
	// The trained models are live on the serving path.
	if p.Engine.ClickbaitModel() == nil {
		t.Error("clickbait model not attached after daily cycle")
	}
	// The cycle re-indexed the corpus, so the store serves no
	// retired-model scores.
	if rep.Reindex == nil || rep.Reindex.Articles == 0 {
		t.Fatalf("daily cycle skipped the corpus reindex: %+v", rep.Reindex)
	}
	art, err := p.articles.Get(rdbms.String(firstArticleID(t, p)))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := p.docs.Get(art[0])
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := p.Engine.Evaluate(doc[2].Str(), doc[1].Str(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if art[6].Float() != fresh.Content.Clickbait {
		t.Error("stored clickbait stale after RunDaily")
	}
}

// firstArticleID returns a deterministic stored article id.
func firstArticleID(t *testing.T, p *Platform) string {
	t.Helper()
	ids := []string{}
	p.articles.Scan(func(r rdbms.Row) bool {
		ids = append(ids, r[0].Str())
		return true
	})
	if len(ids) == 0 {
		t.Fatal("no stored articles")
	}
	sort.Strings(ids)
	return ids[0]
}

func TestRunDailyOnEmptyPlatformSkipsTraining(t *testing.T) {
	p, err := NewPlatform(Config{})
	if err != nil {
		t.Fatal(err)
	}
	pool := compute.NewPool(2, nil)
	rep, err := p.RunDaily(pool, synth.WindowStart)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clickbait != nil || rep.Stance != nil || rep.Topics != nil {
		t.Errorf("training should be skipped on empty platform: %+v", rep)
	}
}
