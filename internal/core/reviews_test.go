package core

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/rdbms"
	"repro/internal/rdbms/vfs"
	"repro/internal/reviews"
	"repro/internal/synth"
)

// submitReviews stores n expert reviews of one article at the platform
// clock, each with its own scores, weight and text, so that the aggregate
// depends on every row and on the order they are folded in.
func submitReviews(t *testing.T, p *Platform, articleID string, n int) {
	t.Helper()
	for i := range n {
		r := reviews.Review{
			ArticleID:      articleID,
			Reviewer:       fmt.Sprintf("expert-%d", i),
			Text:           fmt.Sprintf("review %d of %s", i, articleID),
			Time:           p.Clock(),
			ReviewerWeight: 0.3 + 0.7*float64(i%5),
		}
		for c := range r.Scores {
			r.Scores[c] = 1 + (i+3*c)%5
		}
		if _, err := p.SubmitReview(r); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReviewsSurviveRestart: reviews are rows of the store, so a reopened
// platform serves the same aggregate after a crash, after a clean Close
// and after a checkpoint chain with a WAL tail — and new review ids
// continue past the recovered ones.
func TestReviewsSurviveRestart(t *testing.T) {
	const days = 3
	deltas := func(c *Config) { c.CheckpointDeltaLimit = 16 }
	for _, tc := range []struct {
		name string
		cfg  func(*Config)
		run  func(t *testing.T, p *Platform) // submits reviews, then stops p
	}{
		{"crash", nil, func(t *testing.T, p *Platform) {
			submitReviews(t, p, "art-a", 5)
			submitReviews(t, p, "art-b", 2)
			crash(p)
		}},
		{"close", nil, func(t *testing.T, p *Platform) {
			submitReviews(t, p, "art-a", 5)
			submitReviews(t, p, "art-b", 2)
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
		}},
		{"delta-chain", deltas, func(t *testing.T, p *Platform) {
			for round := range 3 {
				submitReviews(t, p, "art-a", 2)
				st, err := p.Checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				if st.Full != (round == 0) {
					t.Fatalf("round %d checkpoint: %+v", round, st)
				}
			}
			submitReviews(t, p, "art-b", 2) // WAL only
			crash(p)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			p := durablePlatform(t, dir, days, tc.cfg)
			tc.run(t, p)
			want := map[string]reviews.Aggregate{}
			for _, id := range []string{"art-a", "art-b"} {
				if want[id], _ = p.ReviewAggregate(id); want[id].Count == 0 {
					t.Fatalf("%s: no reviews before the restart", id)
				}
			}
			wantRows := tableRows(t, p, ReviewsTable)

			re := durablePlatform(t, dir, days, tc.cfg)
			defer re.Close()
			for id, agg := range want {
				if got, err := re.ReviewAggregate(id); err != nil || !reflect.DeepEqual(got, agg) {
					t.Errorf("%s after reopen: %+v (%v), want %+v", id, got, err, agg)
				}
			}
			if !rowsIdentical(wantRows, tableRows(t, re, ReviewsTable)) {
				t.Error("reviews table diverged after reopen")
			}
			id, err := re.SubmitReview(reviews.Review{ArticleID: "art-c", Reviewer: "late", Scores: [7]int{3, 3, 3, 3, 3, 3, 3}})
			if err != nil || id != int64(len(wantRows))+1 {
				t.Errorf("first id after reopen: %d (%v), want %d", id, err, len(wantRows)+1)
			}
		})
	}
}

// TestReviewsTableCreatedOnUpgrade: a data dir written before reviews were
// stored has no reviews table. It opens, gains an empty one declared like
// a fresh platform's, and every other table comes back unchanged.
func TestReviewsTableCreatedOnUpgrade(t *testing.T) {
	dir := t.TempDir()
	const days = 3
	w := synth.GenerateWorld(synth.Config{Seed: 65, Days: days, RateScale: 0.2, ReactionScale: 0.2})
	p := durablePlatform(t, dir, days, nil)
	if _, err := p.IngestWorld(w); err != nil {
		t.Fatal(err)
	}
	if err := p.DB.DropTable(ReviewsTable); err != nil {
		t.Fatal(err)
	}
	want := map[string][]rdbms.Row{}
	for _, table := range allTables[:len(allTables)-1] {
		want[table] = tableRows(t, p, table)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	re := durablePlatform(t, dir, days, nil)
	defer re.Close()
	tbl, err := re.DB.Table(ReviewsTable)
	if err != nil {
		t.Fatal(err)
	}
	_, indexed := tbl.IndexKindOf("article_id")
	if tbl.Len() != 0 || tbl.Partitions() != 1 || !indexed {
		t.Errorf("upgraded reviews table: %d rows, %d partitions, article_id index %v",
			tbl.Len(), tbl.Partitions(), indexed)
	}
	for table, rows := range want {
		if !rowsIdentical(rows, tableRows(t, re, table)) {
			t.Errorf("%s changed across the upgrade", table)
		}
	}
	submitReviews(t, re, w.Articles[0].ID, 1)
	if a, err := re.AssessID(w.Articles[0].ID); err != nil || a.ExpertCount != 1 {
		t.Errorf("review on the upgraded platform: %+v %v", a, err)
	}
}

// TestSubmitReviewWriteGate: a review is a write like any other — a
// storage fault on its insert latches degraded mode, and a degraded
// platform refuses the next review without touching the table.
func TestSubmitReviewWriteGate(t *testing.T) {
	p, _, fault, _ := faultedPlatform(t, nil)
	defer p.Close()
	r := reviews.Review{ArticleID: "a", Reviewer: "r", Scores: [7]int{4, 4, 4, 4, 4, 4, 4}}
	fault.BreakWrites(vfs.ENOSPC)
	if _, err := p.SubmitReview(r); !errors.Is(err, rdbms.ErrWALBroken) {
		t.Fatalf("submit under fault: %v", err)
	}
	if p.StorageHealth().State == StorageOK {
		t.Fatal("storage fault on a review did not latch degraded mode")
	}
	if _, err := p.SubmitReview(r); !errors.Is(err, ErrDegraded) {
		t.Errorf("submit while degraded: %v", err)
	}
	if tbl, _ := p.DB.Table(ReviewsTable); tbl.Len() != 0 {
		t.Errorf("failed submits stored %d rows", tbl.Len())
	}
}

// TestDailyMigrationCarriesReviews: the warehouse day holds the reviews
// table, and replaying it returns the submitted rows.
func TestDailyMigrationCarriesReviews(t *testing.T) {
	p, w := testPlatform(t, 66, 3, 0.2)
	defer p.Close()
	submitReviews(t, p, w.Articles[0].ID, 3)
	day := synth.WindowStart.AddDate(0, 0, 3)
	if _, err := p.RunDailyMigration(day); err != nil {
		t.Fatal(err)
	}
	wh, _, err := p.ReplayWarehouse(day)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := wh.Table(ReviewsTable)
	if err != nil {
		t.Fatal(err)
	}
	var got []rdbms.Row
	tbl.Scan(func(r rdbms.Row) bool { got = append(got, r); return true })
	slices.SortFunc(got, func(a, b rdbms.Row) int { c, _ := a[0].Compare(b[0]); return c })
	if want := tableRows(t, p, ReviewsTable); len(got) != 3 || !rowsIdentical(got, want) {
		t.Errorf("warehouse reviews: %d rows, want the %d submitted", len(got), len(want))
	}
}
