package repltest

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/reviews"
	"repro/internal/synth"
)

// TestLiteReplication is the harness smoke test: snapshot bootstrap,
// live WAL tailing across a checkpoint rotation, and byte-for-byte
// convergence.
func TestLiteReplication(t *testing.T) {
	primary, proxy := NewLitePrimary(t)
	primary.InsertN(0, 50)
	if _, err := primary.DB.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	follower := NewLiteFollower(t, proxy, "f-basic", nil)
	WaitCaughtUp(t, primary, follower, 10*time.Second)
	TablesEqual(t, primary.DB, follower.DB)
	if got := proxy.GenFetches(); got != 1 {
		t.Fatalf("initial sync fetched %d generations, want 1", got)
	}

	// Live tail: new writes, another checkpoint (rotation + prune), more
	// writes — the follower follows the segment handoff.
	primary.InsertN(50, 80)
	WaitCaughtUp(t, primary, follower, 10*time.Second)
	if _, err := primary.DB.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	primary.InsertN(80, 120)
	WaitCaughtUp(t, primary, follower, 10*time.Second)
	TablesEqual(t, primary.DB, follower.DB)

	st := follower.Client.Status()
	if st.FullResyncs != 1 {
		t.Fatalf("full resyncs = %d, want exactly the initial sync", st.FullResyncs)
	}
	if st.RecordsApplied == 0 {
		t.Fatal("no records applied over the live stream")
	}
}

// TestPlatformPairReplication runs the full platforms: the primary
// ingests a synthetic world through the pipeline while the follower
// replays it over HTTP; at quiesce every table matches and the follower
// rejects writes with ErrFollower while serving reads locally.
func TestPlatformPairReplication(t *testing.T) {
	if testing.Short() {
		t.Skip("platform pair is heavyweight; covered by the full run")
	}
	pair := NewPair(t, nil, nil)
	w := synth.GenerateWorld(synth.Config{Seed: 7, Days: 6, RateScale: 0.3, ReactionScale: 0.2})
	if _, err := pair.Primary.Platform.IngestWorld(w); err != nil {
		t.Fatal(err)
	}
	WaitConvergedPair(t, pair, 30*time.Second)
	TablesEqual(t, pair.Primary.Platform.DB, pair.Follower.Platform.DB)

	f := pair.Follower.Platform
	if !f.IsFollower() {
		t.Fatal("follower platform does not report follower mode")
	}
	// Write surface: every entry point refuses with ErrFollower.
	ev := &w.Events()[0]
	if err := f.IngestEvent(ev); !errors.Is(err, core.ErrFollower) {
		t.Fatalf("IngestEvent on follower: %v", err)
	}
	if err := f.StreamEvent(ev, false); !errors.Is(err, core.ErrFollower) {
		t.Fatalf("StreamEvent on follower: %v", err)
	}
	if n, err := f.IngestWorld(w); !errors.Is(err, core.ErrFollower) || n != 0 || f.StreamStats().Enqueued != 0 {
		t.Fatalf("IngestWorld on follower: n=%d err=%v enqueued=%d", n, err, f.StreamStats().Enqueued)
	}
	if _, err := f.ReplayDeadLetters(false); !errors.Is(err, core.ErrFollower) {
		t.Fatalf("ReplayDeadLetters on follower: %v", err)
	}
	if _, err := f.ReindexCorpus(nil); !errors.Is(err, core.ErrFollower) {
		t.Fatalf("ReindexCorpus on follower: %v", err)
	}
	review := reviews.Review{ArticleID: w.Articles[0].ID, Reviewer: "r", Scores: [7]int{3, 3, 3, 3, 3, 3, 3}}
	if _, err := f.SubmitReview(review); !errors.Is(err, core.ErrFollower) {
		t.Fatalf("SubmitReview on follower: %v", err)
	}
	// Read surface serves locally from the replica.
	if _, err := f.AssessID(w.Articles[0].ID); err != nil {
		t.Fatalf("read on follower: %v", err)
	}
	// Lag surfaces under storage_health.replication.
	sh := f.StorageHealth()
	if sh.Replication == nil || !sh.Replication.Connected {
		t.Fatalf("storage_health.replication = %+v", sh.Replication)
	}
	if pair.Primary.Platform.StorageHealth().Replication != nil {
		t.Fatal("primary storage_health must omit replication")
	}
}
