package core

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/analytics"
	"repro/internal/compute"
	"repro/internal/outlets"
	"repro/internal/reviews"
	"repro/internal/synth"
)

// testPlatform builds a platform with an ingested small world.
func testPlatform(t *testing.T, seed int64, days int, scale float64) (*Platform, *synth.World) {
	t.Helper()
	w := synth.GenerateWorld(synth.Config{Seed: seed, Days: days, RateScale: scale, ReactionScale: 0.3})
	p, err := NewPlatform(Config{
		Clock: func() time.Time { return synth.WindowStart.AddDate(0, 0, days) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.IngestWorld(w); err != nil {
		t.Fatal(err)
	}
	return p, w
}

func TestIngestWorldOverlapped(t *testing.T) {
	// The production overlap: shard queues far below the world size force
	// producer backpressure while the workers drain concurrently. Every
	// event must still arrive exactly once in the store, without deadlock.
	w := synth.GenerateWorld(synth.Config{Seed: 31, Days: 10, RateScale: 0.4, ReactionScale: 0.3})
	p, err := NewPlatform(Config{
		Clock:               func() time.Time { return synth.WindowStart.AddDate(0, 0, 10) },
		streamQueueCapacity: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := p.IngestWorld(w)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(w.Events()) {
		t.Errorf("processed %d of %d events", n, len(w.Events()))
	}
	articlesTable, _ := p.DB.Table(ArticlesTable)
	if articlesTable.Len() != len(w.Articles) {
		t.Errorf("stored %d articles, want %d", articlesTable.Len(), len(w.Articles))
	}
	if p.Stats().OrphanReactions != 0 {
		t.Errorf("orphans: %+v", p.Stats())
	}
}

func TestEndToEndIngestion(t *testing.T) {
	p, w := testPlatform(t, 21, 8, 0.3)
	stats := p.Stats()
	if stats.Postings != len(w.Articles) {
		t.Errorf("postings: %d want %d", stats.Postings, len(w.Articles))
	}
	if stats.ParseFailures != 0 {
		t.Errorf("parse failures: %d", stats.ParseFailures)
	}
	if stats.OrphanReactions != 0 {
		t.Errorf("orphans: %d", stats.OrphanReactions)
	}
	wantReactions := 0
	for _, c := range w.Cascades {
		wantReactions += len(c) - 1
	}
	if stats.Reactions != wantReactions {
		t.Errorf("reactions: %d want %d", stats.Reactions, wantReactions)
	}
	articlesTable, _ := p.DB.Table(ArticlesTable)
	if articlesTable.Len() != len(w.Articles) {
		t.Errorf("stored articles: %d", articlesTable.Len())
	}
}

func TestIngestIdempotentRedelivery(t *testing.T) {
	// At-least-once semantics: replaying the same events must not
	// duplicate articles (Upsert path).
	p, w := testPlatform(t, 22, 5, 0.2)
	if _, err := p.IngestWorld(w); err != nil {
		t.Fatal(err)
	}
	articlesTable, _ := p.DB.Table(ArticlesTable)
	if articlesTable.Len() != len(w.Articles) {
		t.Errorf("duplicated articles on redelivery: %d vs %d",
			articlesTable.Len(), len(w.Articles))
	}
}

func TestAssessURLAndID(t *testing.T) {
	p, w := testPlatform(t, 23, 6, 0.3)
	art := w.Articles[0]
	a, err := p.AssessURL(art.URL)
	if err != nil {
		t.Fatal(err)
	}
	if a.ArticleID != art.ID || a.OutletID != art.OutletID {
		t.Errorf("assessment identity: %+v", a)
	}
	if a.Title != art.Title {
		t.Errorf("title: %q vs %q", a.Title, art.Title)
	}
	if a.Reactions != len(w.Cascades[art.ID])-1 {
		t.Errorf("reactions: %d want %d", a.Reactions, len(w.Cascades[art.ID])-1)
	}
	if a.Composite <= 0 || a.Composite > 1 {
		t.Errorf("composite: %v", a.Composite)
	}
	byID, err := p.AssessID(art.ID)
	if err != nil {
		t.Fatal(err)
	}
	if byID.URL != art.URL {
		t.Errorf("by id: %+v", byID)
	}
	if _, err := p.AssessURL("https://nowhere.example/x"); !errors.Is(err, ErrNotIngested) {
		t.Errorf("missing url: %v", err)
	}
	if _, err := p.AssessID("ghost"); !errors.Is(err, ErrNotIngested) {
		t.Errorf("missing id: %v", err)
	}
}

func TestAssessmentIncludesExpertReviews(t *testing.T) {
	p, w := testPlatform(t, 24, 5, 0.2)
	art := w.Articles[0]
	review := reviews.Review{
		ArticleID: art.ID, Reviewer: "dr-x",
		Time: synth.WindowStart.AddDate(0, 0, 4),
	}
	for c := range review.Scores {
		review.Scores[c] = 4
	}
	if _, err := p.SubmitReview(review); err != nil {
		t.Fatal(err)
	}
	a, err := p.AssessID(art.ID)
	if err != nil {
		t.Fatal(err)
	}
	if a.ExpertCount != 1 || a.ExpertOverall < 3.9 || a.ExpertOverall > 4.1 {
		t.Errorf("expert aggregate: %+v", a)
	}
}

func TestFigure4EndToEnd(t *testing.T) {
	p, _ := testPlatform(t, 25, 30, 0.5)
	s, err := p.Figure4(synth.WindowStart, 30)
	if err != nil {
		t.Fatal(err)
	}
	// Shape: by the end of the window low-quality classes dedicate a
	// larger share than high-quality ones.
	lateLow := s.MeanOver(outlets.VeryPoor, 20, 30)
	lateHigh := s.MeanOver(outlets.Excellent, 20, 30)
	if lateLow <= lateHigh {
		t.Errorf("figure 4 shape: very-poor %v should exceed excellent %v", lateLow, lateHigh)
	}
	earlyLow := s.MeanOver(outlets.VeryPoor, 0, 8)
	earlyHigh := s.MeanOver(outlets.Excellent, 0, 8)
	if (lateLow - lateHigh) <= (earlyLow - earlyHigh) {
		t.Errorf("figure 4 divergence: early gap %v late gap %v",
			earlyLow-earlyHigh, lateLow-lateHigh)
	}
}

func TestFigure5EndToEnd(t *testing.T) {
	p, _ := testPlatform(t, 26, 20, 0.5)
	eng, err := p.Figure5Engagement(96)
	if err != nil {
		t.Fatal(err)
	}
	spread := map[outlets.RatingClass]float64{}
	for _, d := range eng {
		spread[d.Class] = d.Spread()
	}
	if spread[outlets.VeryPoor] <= spread[outlets.Excellent] {
		t.Errorf("figure 5 left: very-poor spread %v vs excellent %v",
			spread[outlets.VeryPoor], spread[outlets.Excellent])
	}
	ev, err := p.Figure5Evidence(96)
	if err != nil {
		t.Fatal(err)
	}
	mean := map[outlets.RatingClass]float64{}
	for _, d := range ev {
		mean[d.Class] = d.Mean
	}
	if mean[outlets.Excellent] <= mean[outlets.VeryPoor] {
		t.Errorf("figure 5 right: excellent mean %v vs very-poor %v",
			mean[outlets.Excellent], mean[outlets.VeryPoor])
	}
}

func TestConsensusEndToEnd(t *testing.T) {
	p, _ := testPlatform(t, 27, 10, 0.3)
	res, err := p.RunConsensusExperiment(analytics.ConsensusConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.DisagreementWith >= res.DisagreementWithout {
		t.Errorf("consensus: %v vs %v", res.DisagreementWith, res.DisagreementWithout)
	}
	if res.MAEWith >= res.MAEWithout {
		t.Errorf("accuracy: %v vs %v", res.MAEWith, res.MAEWithout)
	}
	if res.CorrWith <= res.CorrWithout {
		t.Errorf("ranking accuracy: %v vs %v", res.CorrWith, res.CorrWithout)
	}
}

func TestDailyMigrationAndWarehouse(t *testing.T) {
	p, _ := testPlatform(t, 28, 5, 0.2)
	date := synth.WindowStart.AddDate(0, 0, 5)
	n, err := p.RunDailyMigration(date)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("nothing migrated")
	}
	// One directory per day, holding one generation of every migrated table.
	day := filepath.Join(p.warehouseDir, "2020-01-20")
	if days, err := p.warehouseFS.Glob(filepath.Join(p.warehouseDir, "*")); err != nil || len(days) != 1 || days[0] != day {
		t.Errorf("warehouse days: %v (%v), want [%s]", days, err, day)
	}
	if _, err := p.warehouseFS.Stat(filepath.Join(day, "tables.dat")); err != nil {
		t.Error(err)
	}
	want := 0
	for _, name := range MigrationTables {
		tbl, err := p.DB.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		want += tbl.Len()
	}
	if n != want {
		t.Errorf("migrated %d rows, the tables hold %d", n, want)
	}
}

func TestTrainClickbaitModelJob(t *testing.T) {
	p, _ := testPlatform(t, 29, 15, 0.5)
	pool := compute.NewPool(4, nil)
	rep, err := p.TrainClickbaitModel(pool, 7)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Examples < 50 {
		t.Errorf("too few weak labels: %d", rep.Examples)
	}
	if rep.PositiveShare <= 0 || rep.PositiveShare >= 1 {
		t.Errorf("degenerate label balance: %v", rep.PositiveShare)
	}
	if rep.TrainAccuracy < 0.9 {
		t.Errorf("train accuracy: %v", rep.TrainAccuracy)
	}
	// The trained engine must still separate quality classes.
	facts, _ := p.BuildFacts()
	if len(facts) == 0 {
		t.Fatal("no facts")
	}
}

func TestTrainStanceModelJob(t *testing.T) {
	p, _ := testPlatform(t, 30, 10, 0.4)
	pool := compute.NewPool(4, nil)
	rep, err := p.TrainStanceModel(pool)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Examples == 0 {
		t.Fatal("no replies stored")
	}
	if rep.TrainAccuracy < 0.8 {
		t.Errorf("stance train accuracy: %v", rep.TrainAccuracy)
	}
}

func TestTrainingOnEmptyPlatform(t *testing.T) {
	p, err := NewPlatform(Config{})
	if err != nil {
		t.Fatal(err)
	}
	pool := compute.NewPool(2, nil)
	if _, err := p.TrainClickbaitModel(pool, 1); !errors.Is(err, ErrNotIngested) {
		t.Errorf("clickbait on empty: %v", err)
	}
	if _, err := p.TrainStanceModel(pool); !errors.Is(err, ErrNotIngested) {
		t.Errorf("stance on empty: %v", err)
	}
}

func TestIngestMalformedPayload(t *testing.T) {
	p, err := NewPlatform(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Pipeline.Enqueue("k", []byte("{broken")); err != nil {
		t.Fatal(err)
	}
	// An empty world adds nothing: the delta IngestWorld reports is the
	// malformed payload's outcome alone, which must not count as processed.
	n, err := p.IngestWorld(&synth.World{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("malformed message processed: %d", n)
	}
	if ss := p.StreamStats(); ss.Malformed != 1 || len(p.DeadLetters()) != 1 {
		t.Errorf("malformed %d, dead letters %d, want 1 and 1", ss.Malformed, len(p.DeadLetters()))
	}
}

func TestOrphanReactionCounted(t *testing.T) {
	p, err := NewPlatform(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ev := synth.Event{
		Type: synth.EventTypeReaction, PostID: "r1", Kind: "like",
		UserID: "u", ArticleURL: "https://ghost.example/a", Time: time.Now(),
	}
	if err := p.IngestEvent(&ev); !errors.Is(err, ErrNotIngested) {
		t.Errorf("orphan: %v", err)
	}
	if p.Stats().OrphanReactions != 1 {
		t.Errorf("orphan counter: %+v", p.Stats())
	}
}
