package core

import (
	"testing"
	"time"

	"repro/internal/synth"
)

// Cross-module failure injection: the platform must tolerate the failure
// modes its substrates simulate (datanode loss, producer restarts) without
// losing or duplicating data.

func TestMigrationSurvivesDataNodeFailure(t *testing.T) {
	p, _ := testPlatform(t, 50, 5, 0.3)
	date := synth.WindowStart.AddDate(0, 0, 5)
	exported, err := p.RunDailyMigration(date)
	if err != nil {
		t.Fatal(err)
	}
	// Lose one of the four datanodes after the snapshot: with replication
	// 3 every block still has live replicas.
	if err := p.Warehouse.KillNode(0); err != nil {
		t.Fatal(err)
	}
	_, imported, err := p.ReplayWarehouse(date)
	if err != nil {
		t.Fatalf("replay after node failure: %v", err)
	}
	if imported != exported {
		t.Errorf("rows after node failure: %d of %d", imported, exported)
	}
}

func TestMigrationAfterCorruptedReplica(t *testing.T) {
	p, _ := testPlatform(t, 51, 4, 0.2)
	date := synth.WindowStart.AddDate(0, 0, 4)
	exported, err := p.RunDailyMigration(date)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one replica of the first block of every warehouse file; the
	// checksummed reads must fail over to a healthy replica.
	for _, name := range p.Warehouse.List("warehouse/") {
		locs, err := p.Warehouse.BlockLocations(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(locs) == 0 || len(locs[0]) == 0 {
			continue
		}
		if !p.Warehouse.CorruptBlock(name, 0, locs[0][0]) {
			t.Fatalf("could not corrupt %s", name)
		}
	}
	_, imported, err := p.ReplayWarehouse(date)
	if err != nil {
		t.Fatalf("replay after corruption: %v", err)
	}
	if imported != exported {
		t.Errorf("rows after corruption: %d of %d", imported, exported)
	}
}

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
	if _, err := p.RunDailyMigration(date); err == nil {
		t.Error("same-date snapshot should be rejected")
	}
}
