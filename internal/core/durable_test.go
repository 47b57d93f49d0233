package core

import (
	"errors"
	"fmt"
	"maps"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/compute"
	"repro/internal/rdbms"
	"repro/internal/synth"
)

// allTables are the store tables the durability tests fingerprint, the
// reviews table last.
var allTables = []string{ArticlesTable, SocialTable, RepliesTable, DocsTable, DeadLettersTable, ReviewsTable}

func dumpPlatform(t *testing.T, p *Platform) map[string][]rdbms.Row {
	t.Helper()
	out := map[string][]rdbms.Row{}
	for _, table := range allTables {
		out[table] = tableRows(t, p, table)
	}
	return out
}

// durablePlatform builds a platform homed in dir with a fixed clock.
func durablePlatform(t *testing.T, dir string, days int, mutate func(*Config)) *Platform {
	t.Helper()
	cfg := Config{
		Clock:   func() time.Time { return synth.WindowStart.AddDate(0, 0, days) },
		DataDir: dir,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	p, err := NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// crash abandons a platform without Close: the pipeline is drained so all
// accepted work is committed (and therefore WAL-logged), but no final
// checkpoint is written and nothing is flushed or synced — recovery must
// come from snapshot + WAL replay of what reached the OS.
func crash(p *Platform) {
	p.Pipeline.Flush()
	p.DB.Abandon()
}

// TestPlatformKillAndRecover is the platform-level acceptance pin: ingest,
// checkpoint online, ingest more, dead-letter something, crash, and a new
// platform on the same directory must recover every table bit-identically
// and keep serving.
func TestPlatformKillAndRecover(t *testing.T) {
	dir := t.TempDir()
	const days = 6
	w := synth.GenerateWorld(synth.Config{Seed: 61, Days: days, RateScale: 0.3, ReactionScale: 0.3})
	events := w.Events()

	p := durablePlatform(t, dir, days, nil)
	if _, err := p.IngestWorld(w); err != nil {
		t.Fatal(err)
	}
	// Expert reviews on both sides of the checkpoint: the first two reach
	// the snapshot, the last only the WAL.
	submitReviews(t, p, w.Articles[0].ID, 2)
	// Online checkpoint mid-life.
	if _, err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	submitReviews(t, p, w.Articles[0].ID, 1)
	wantAgg, err := p.ReviewAggregate(w.Articles[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint traffic, recoverable only from the WAL: re-ingest a
	// cascade's worth of reactions plus a dead-lettered malformed payload.
	extra := 0
	for i := range events {
		if events[i].Type == synth.EventTypeReaction {
			if err := p.IngestEvent(&events[i]); err == nil {
				extra++
			}
			if extra >= 25 {
				break
			}
		}
	}
	if extra == 0 {
		t.Fatal("fixture has no reactions")
	}
	if err := p.Pipeline.Enqueue("poison", []byte("not-an-event")); err != nil {
		t.Fatal(err)
	}
	p.Pipeline.Flush()
	if len(p.DeadLetters()) != 1 {
		t.Fatalf("dead letters: %d", len(p.DeadLetters()))
	}
	want := dumpPlatform(t, p)
	crash(p)

	re := durablePlatform(t, dir, days, nil)
	defer re.Close()
	got := dumpPlatform(t, re)
	for _, table := range allTables {
		if !rowsIdentical(want[table], got[table]) {
			t.Fatalf("%s diverged after recovery: want %d rows, got %d",
				table, len(want[table]), len(got[table]))
		}
	}
	st := re.StorageStats()
	if st.RecoveredRecords == 0 {
		t.Error("nothing replayed from the WAL")
	}
	// The recovered platform serves assessments from the recovered rows.
	a, err := re.AssessID(w.Articles[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if a.URL != w.Articles[0].URL || a.ExpertCount != 3 || a.ExpertOverall != wantAgg.Overall {
		t.Errorf("recovered assessment: %+v", a)
	}
	if got, err := re.ReviewAggregate(w.Articles[0].ID); err != nil || !reflect.DeepEqual(got, wantAgg) {
		t.Errorf("recovered review aggregate %+v (%v), want %+v", got, err, wantAgg)
	}
	// The dead-letter id sequence continues after the recovered rows: a new
	// failure must not overwrite them.
	if err := re.Pipeline.Enqueue("poison-2", []byte("still-not-an-event")); err != nil {
		t.Fatal(err)
	}
	re.Pipeline.Flush()
	dls := re.DeadLetters()
	if len(dls) != 2 {
		t.Fatalf("dead letters after recovery + new failure: %d", len(dls))
	}
	if dls[0].ID == dls[1].ID {
		t.Error("dead-letter id collided with recovered row")
	}
	if !strings.Contains(string(dls[1].Payload), "still-not-an-event") {
		t.Errorf("new dead letter got the wrong id ordering: %+v", dls)
	}
}

// TestPlatformDeltaChainKillAndRecover exercises the incremental
// checkpoint path end to end through the platform config
// (CheckpointDeltaLimit, WALFsyncPolicy): traffic is ingested in rounds
// with a checkpoint after each, building a base plus a ≥3-delta chain,
// then more traffic lands only in the WAL, the process crashes, and a
// fresh platform on the same directory must recover every table
// DeepEqual-identical from manifest → base → deltas → WAL replay.
func TestPlatformDeltaChainKillAndRecover(t *testing.T) {
	dir := t.TempDir()
	const days = 6
	w := synth.GenerateWorld(synth.Config{Seed: 67, Days: days, RateScale: 0.3, ReactionScale: 0.3})
	events := w.Events()
	if len(events) < 40 {
		t.Fatalf("fixture too small: %d events", len(events))
	}
	cfg := func(c *Config) {
		c.CheckpointDeltaLimit = 16 // keep the chain: no compaction mid-test
		c.WALFsyncPolicy = "interval:5ms"
	}
	p := durablePlatform(t, dir, days, cfg)

	// Round 0 seeds the base; rounds 1..3 each add traffic and chain a
	// delta onto it.
	chunk := len(events) / 5
	ingest := func(round int) {
		for i := round * chunk; i < (round+1)*chunk; i++ {
			_ = p.IngestEvent(&events[i]) // orphans on chunk edges are fine
		}
	}
	ingest(0)
	st, err := p.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Full {
		t.Fatalf("first checkpoint not a base: %+v", st)
	}
	for round := 1; round <= 3; round++ {
		ingest(round)
		if st, err = p.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if st.Full || st.DeltaChainLen != round {
			t.Fatalf("round %d: %+v", round, st)
		}
	}
	// Tail traffic recoverable only from the WAL.
	ingest(4)
	want := dumpPlatform(t, p)
	crash(p)

	re := durablePlatform(t, dir, days, cfg)
	defer re.Close()
	got := dumpPlatform(t, re)
	for _, table := range allTables {
		if !rowsIdentical(want[table], got[table]) {
			t.Fatalf("%s diverged after delta-chain recovery: want %d rows, got %d",
				table, len(want[table]), len(got[table]))
		}
	}
	ss := re.StorageStats()
	if ss.DeltaChainLength != 3 {
		t.Errorf("recovered delta chain: %d", ss.DeltaChainLength)
	}
	if ss.WALFsyncPolicy != "interval" {
		t.Errorf("recovered fsync policy: %q", ss.WALFsyncPolicy)
	}
	if ss.RecoveredRecords == 0 {
		t.Error("nothing replayed from the WAL tail")
	}
	// The recovered platform keeps serving and checkpointing.
	if _, err := re.AssessID(w.Articles[0].ID); err != nil {
		t.Fatal(err)
	}
	if st, err := re.Checkpoint(); err != nil || st.Full {
		t.Fatalf("post-recovery checkpoint: %+v %v", st, err)
	}
}

// TestPlatformFsyncPolicyRejected: a bad policy string must fail platform
// assembly loudly, not be silently coerced.
func TestPlatformFsyncPolicyRejected(t *testing.T) {
	_, err := NewPlatform(Config{DataDir: t.TempDir(), WALFsyncPolicy: "sometimes"})
	if err == nil {
		t.Fatal("bad fsync policy accepted")
	}
}

// TestPlatformCloseCheckpoints: Close drains and writes a final
// checkpoint, so a reopen restores purely from the snapshot (zero WAL
// records to replay) and sees the full corpus.
func TestPlatformCloseCheckpoints(t *testing.T) {
	dir := t.TempDir()
	const days = 4
	w := synth.GenerateWorld(synth.Config{Seed: 62, Days: days, RateScale: 0.2, ReactionScale: 0.2})
	p := durablePlatform(t, dir, days, nil)
	if _, err := p.IngestWorld(w); err != nil {
		t.Fatal(err)
	}
	want := dumpPlatform(t, p)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// Close twice is fine.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	re := durablePlatform(t, dir, days, nil)
	defer re.Close()
	st := re.StorageStats()
	if st.RecoveredRecords != 0 {
		t.Errorf("replayed %d records despite the close checkpoint", st.RecoveredRecords)
	}
	if got := dumpPlatform(t, re); !maps.EqualFunc(want, got, rowsIdentical) {
		t.Fatal("close-checkpoint recovery diverged")
	}
	// Bootstrap-style recovery detection: the store is non-empty.
	tbl, _ := re.DB.Table(ArticlesTable)
	if tbl.Len() != len(w.Articles) {
		t.Errorf("recovered articles: %d want %d", tbl.Len(), len(w.Articles))
	}
}

// TestInMemoryPlatformUnchanged: without DataDir nothing touches disk and
// durable operations report ErrNoDir.
func TestInMemoryPlatformUnchanged(t *testing.T) {
	p, _ := testPlatform(t, 63, 3, 0.2)
	defer p.Close()
	if _, err := p.Checkpoint(); !errors.Is(err, rdbms.ErrNoDir) {
		t.Errorf("in-memory checkpoint: %v", err)
	}
	st := p.StorageStats()
	if st.Durable || st.Dir != "" {
		t.Errorf("in-memory storage stats: %+v", st)
	}
	if st.Rows == 0 || st.TablePartitions[ArticlesTable] == 0 {
		t.Errorf("partition stats missing: %+v", st)
	}
}

// TestCheckpointOnlineUnderTraffic checkpoints repeatedly while streaming
// ingest, assessment reads and a corpus reindex all run (-race covers the
// locking), then crash-recovers and compares the final state.
func TestCheckpointOnlineUnderTraffic(t *testing.T) {
	dir := t.TempDir()
	const days = 6
	w := synth.GenerateWorld(synth.Config{Seed: 64, Days: days, RateScale: 0.3, ReactionScale: 0.3})
	events := w.Events()
	p := durablePlatform(t, dir, days, nil)

	// Seed half the world synchronously so readers and the reindex have
	// rows to chew on.
	half := len(events) / 2
	for i := 0; i < half; i++ {
		_ = p.IngestEvent(&events[i])
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Streaming ingest of the second half.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := half; i < len(events); i++ {
			if err := p.StreamEvent(&events[i], true); err != nil {
				t.Errorf("stream: %v", err)
				return
			}
		}
	}()
	// Assessment readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, _ = p.AssessID(w.Articles[i%len(w.Articles)].ID)
			i++
		}
	}()
	// A forced reindex overlapping the checkpoints.
	wg.Add(1)
	go func() {
		defer wg.Done()
		pool := compute.NewPool(2, nil)
		if _, err := p.ReindexCorpus(pool, ReindexForce()); err != nil {
			t.Errorf("reindex: %v", err)
		}
	}()
	// Checkpoints racing all of the above.
	for k := 0; k < 5; k++ {
		if _, err := p.Checkpoint(); err != nil {
			t.Fatalf("online checkpoint %d: %v", k, err)
		}
	}
	close(stop)
	wg.Wait()
	p.Pipeline.Flush()
	want := dumpPlatform(t, p)
	crash(p)

	re := durablePlatform(t, dir, days, nil)
	defer re.Close()
	if got := dumpPlatform(t, re); !maps.EqualFunc(want, got, rowsIdentical) {
		t.Fatal("recovery after online checkpoints diverged")
	}
}

// TestWatermarkSurvivesRestart: the model-generation counter dies with
// the process, so recovery must raise it past the highest stored
// generation — otherwise a restart + retrain could alias a stale stored
// generation and the incremental reindex would skip genuinely stale rows.
func TestWatermarkSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	const days = 4
	w := synth.GenerateWorld(synth.Config{Seed: 66, Days: days, RateScale: 0.2, ReactionScale: 0.2})
	p := durablePlatform(t, dir, days, nil)
	if _, err := p.IngestWorld(w); err != nil {
		t.Fatal(err)
	}
	pool := compute.NewPool(2, nil)
	// Train (generation 2) and stamp every row current.
	if _, err := p.TrainClickbaitModel(pool, 3); err != nil {
		t.Fatal(err)
	}
	rep, err := p.ReindexCorpus(pool)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Articles != len(w.Articles) {
		t.Fatalf("stamp run: %d", rep.Articles)
	}
	storedGen := p.Engine.ModelGeneration()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: a fresh process whose engine counter restarts from scratch.
	re := durablePlatform(t, dir, days, nil)
	defer re.Close()
	if got := re.Engine.ModelGeneration(); got <= storedGen {
		t.Fatalf("recovered generation %d does not clear stored %d", got, storedGen)
	}
	// The fresh engine's models differ from the dead process's trained
	// ones, so every recovered row is stale — train (as RunDaily would)
	// and reindex: nothing may be skipped via a generation collision.
	if _, err := re.TrainClickbaitModel(pool, 3); err != nil {
		t.Fatal(err)
	}
	rep2, err := re.ReindexCorpus(pool)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Skipped != 0 || rep2.Articles != len(w.Articles) {
		t.Fatalf("post-restart reindex skipped stale rows: articles=%d skipped=%d",
			rep2.Articles, rep2.Skipped)
	}
	// And the watermark still converges: one more run skips everything.
	rep3, err := re.ReindexCorpus(pool)
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Skipped != len(w.Articles) {
		t.Fatalf("watermark did not re-arm: %+v", rep3)
	}
}

// TestDeadLetterRetentionAfterReplayGaps: ReplayDeadLetters leaves id
// gaps behind; the eviction cursor must walk over them without stalling
// or over-evicting.
func TestDeadLetterRetentionAfterReplayGaps(t *testing.T) {
	p, err := NewPlatform(Config{Clock: func() time.Time { return synth.WindowStart }})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.dlMaxCount = 3
	poison := func(i int) {
		p.Pipeline.Enqueue("poison", []byte(fmt.Sprintf("garbage-%d", i)))
	}
	for i := 0; i < 5; i++ {
		poison(i)
	}
	p.Pipeline.Flush()
	// Replay: every letter re-fails and is re-dead-lettered under new ids,
	// leaving gaps at the old ones.
	if _, err := p.ReplayDeadLetters(true); err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 12; i++ {
		poison(i)
	}
	p.Pipeline.Flush()
	dls := p.DeadLetters()
	if len(dls) != 3 {
		t.Fatalf("backlog after replay gaps: %d", len(dls))
	}
	// The survivors are the newest writes.
	if string(dls[len(dls)-1].Payload) != "garbage-11" {
		t.Errorf("newest survivor: %q", dls[len(dls)-1].Payload)
	}
}

// TestDeadLetterSizeRetention: the dead_letters table is bounded; the
// oldest rows are evicted first and the eviction counter reports it.
func TestDeadLetterSizeRetention(t *testing.T) {
	p, err := NewPlatform(Config{Clock: func() time.Time { return synth.WindowStart }})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.dlMaxCount = 3
	// One shard key: the failures dead-letter in enqueue order, making the
	// oldest-first eviction deterministic.
	for i := 0; i < 10; i++ {
		if err := p.Pipeline.Enqueue("poison", []byte(fmt.Sprintf("garbage-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	p.Pipeline.Flush()
	dls := p.DeadLetters()
	if len(dls) != 3 {
		t.Fatalf("backlog: %d want 3", len(dls))
	}
	// Oldest-first eviction: the survivors are the newest three.
	for i, dl := range dls {
		want := fmt.Sprintf("garbage-%d", 7+i)
		if string(dl.Payload) != want {
			t.Errorf("survivor %d: %q want %q", i, dl.Payload, want)
		}
	}
	ss := p.StreamStats()
	if ss.DeadLetterEvicted != 7 {
		t.Errorf("evicted counter: %d want 7", ss.DeadLetterEvicted)
	}
	if ss.DeadLetterBacklog != 3 {
		t.Errorf("backlog counter: %d", ss.DeadLetterBacklog)
	}
}

// TestIncrementalReindexWatermark: after a retrain + full reindex, rows
// are stamped current; a partial invalidation re-evaluates exactly the
// stale rows and a final run skips everything.
func TestIncrementalReindexWatermark(t *testing.T) {
	p, w := testPlatform(t, 65, 6, 0.3)
	defer p.Close()
	pool := compute.NewPool(2, nil)
	if _, err := p.TrainClickbaitModel(pool, 3); err != nil {
		t.Fatal(err)
	}
	rep, err := p.ReindexCorpus(pool)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Articles != len(w.Articles) || rep.Skipped != 0 {
		t.Fatalf("first run after retrain: articles=%d skipped=%d", rep.Articles, rep.Skipped)
	}
	// Second run: everything is watermark-current.
	rep2, err := p.ReindexCorpus(pool)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Articles != 0 || rep2.Skipped != len(w.Articles) {
		t.Fatalf("second run: articles=%d skipped=%d", rep2.Articles, rep2.Skipped)
	}
	// Simulate an interrupted partial run: invalidate k rows' watermark.
	const k = 5
	for _, a := range w.Articles[:k] {
		if err := p.articles.Mutate(rdbms.String(a.ID), func(r rdbms.Row) (rdbms.Row, error) {
			r[colModelGen] = rdbms.Int(0)
			return r, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	rep3, err := p.ReindexCorpus(pool)
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Articles != k || rep3.Skipped != len(w.Articles)-k {
		t.Fatalf("partial-resume run: articles=%d skipped=%d want %d/%d",
			rep3.Articles, rep3.Skipped, k, len(w.Articles)-k)
	}
	// The resumed rows are model-current again.
	rep4, err := p.ReindexCorpus(pool)
	if err != nil {
		t.Fatal(err)
	}
	if rep4.Articles != 0 {
		t.Fatalf("post-resume run still found %d stale rows", rep4.Articles)
	}
}
