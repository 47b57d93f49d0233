package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/rdbms"
	"repro/internal/synth"
)

// Cross-module failure injection: the platform must tolerate producer
// restarts without losing or duplicating data.

func TestIngestConsumerCrashRedelivery(t *testing.T) {
	// A producer that crashed half-way through a world and restarts from
	// the beginning delivers the first half twice; the idempotent ingestion
	// path must not duplicate articles.
	w := synth.GenerateWorld(synth.Config{Seed: 52, Days: 4, RateScale: 0.2, ReactionScale: 0.2})
	p, err := NewPlatform(Config{
		Clock: func() time.Time { return synth.WindowStart.AddDate(0, 0, 4) },
	})
	if err != nil {
		t.Fatal(err)
	}
	events := w.Events()
	for i := range events[:len(events)/2] {
		if err := p.IngestEvent(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := p.IngestWorld(w); err != nil || n != len(events) {
		t.Fatalf("redelivery processed %d of %d events: %v", n, len(events), err)
	}

	articlesTable, _ := p.DB.Table(ArticlesTable)
	if articlesTable.Len() != len(w.Articles) {
		t.Errorf("articles after redelivery: %d want %d", articlesTable.Len(), len(w.Articles))
	}
	// Reactions were applied twice for the first half; the platform
	// records reaction aggregates as counters, so the social table must
	// still have one row per article (no duplicate article rows).
	socialTable, _ := p.DB.Table(SocialTable)
	if socialTable.Len() != len(w.Articles) {
		t.Errorf("social rows: %d want %d", socialTable.Len(), len(w.Articles))
	}
}

func TestRerunningDailyMigrationSameDateFails(t *testing.T) {
	p, _ := testPlatform(t, 53, 3, 0.2)
	date := synth.WindowStart.AddDate(0, 0, 3)
	if _, err := p.RunDailyMigration(date); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunDailyMigration(date); !errors.Is(err, rdbms.ErrExists) {
		t.Errorf("same-date snapshot: %v, want rdbms.ErrExists", err)
	}
}
