package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/rdbms"
	"repro/internal/rdbms/vfs"
	"repro/internal/synth"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// faultedPlatform builds a durable platform on an in-memory filesystem
// wrapped in a fault injector, with fast recovery backoff for tests.
func faultedPlatform(t *testing.T, mutate func(*Config)) (*Platform, *vfs.Mem, *vfs.Fault, *synth.World) {
	t.Helper()
	mem := vfs.NewMem()
	fault := vfs.NewFault(mem)
	cfg := Config{
		DataDir:            "data",
		StorageFS:          fault,
		WALFsyncPolicy:     "always",
		recoveryBackoff:    2 * time.Millisecond,
		recoveryMaxBackoff: 20 * time.Millisecond,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	p, err := NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := synth.GenerateWorld(synth.Config{Seed: 71, Days: 2, RateScale: 0.2, ReactionScale: 0.2})
	return p, mem, fault, w
}

// TestDegradedModeRoundTrip is the PR's acceptance pin: an injected WAL
// write failure degrades the platform to read-only (reads keep serving,
// every write path fails fast with ErrDegraded), the supervisor retries
// in the background, and once the fault clears the platform heals itself
// — writes resume and no pre-fault commit is lost.
func TestDegradedModeRoundTrip(t *testing.T) {
	p, _, fault, w := faultedPlatform(t, nil)
	defer p.Close()

	// Pre-fault traffic, synchronously committed and (FsyncAlways) durable.
	for i := range w.Events() {
		if err := p.IngestEvent(&w.Events()[i]); err != nil {
			t.Fatal(err)
		}
	}
	prePostings := p.Stats().Postings
	if prePostings == 0 {
		t.Fatal("fixture ingested no postings")
	}
	if p.StorageHealth().State != StorageOK {
		t.Fatalf("healthy platform reports %q", p.StorageHealth().State)
	}

	// Break every write: the next WAL append fails, latches ErrWALBroken,
	// and the platform must degrade instead of erroring forever.
	fault.BreakWrites(vfs.ENOSPC)
	ev := synth.Event{
		Type: synth.EventTypeReaction, PostID: "deg-1", Kind: "like",
		UserID: "u", ArticleURL: w.Articles[0].URL, Time: time.Now(),
	}
	if err := p.IngestEvent(&ev); !errors.Is(err, rdbms.ErrWALBroken) {
		t.Fatalf("write under fault: %v", err)
	}
	if p.StorageHealth().State == StorageOK {
		t.Fatal("storage fault did not latch degraded mode")
	}

	// Degraded read-only mode: reads serve, writes fail fast with
	// ErrDegraded on every entry point.
	if _, err := p.AssessID(w.Articles[0].ID); err != nil {
		t.Fatalf("read while degraded: %v", err)
	}
	if err := p.IngestEvent(&ev); !errors.Is(err, ErrDegraded) {
		t.Fatalf("IngestEvent while degraded: %v", err)
	}
	if err := p.StreamEvent(&ev, false); !errors.Is(err, ErrDegraded) {
		t.Fatalf("StreamEvent while degraded: %v", err)
	}
	if n, err := p.IngestWorld(w); !errors.Is(err, ErrDegraded) || n != 0 || p.StreamStats().Enqueued != 0 {
		t.Fatalf("IngestWorld while degraded: n=%d err=%v enqueued=%d", n, err, p.StreamStats().Enqueued)
	}
	if _, err := p.Checkpoint(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Checkpoint while degraded: %v", err)
	}
	if _, err := p.ReplayDeadLetters(false); !errors.Is(err, ErrDegraded) {
		t.Fatalf("ReplayDeadLetters while degraded: %v", err)
	}
	if _, err := p.ReindexCorpus(nil); !errors.Is(err, ErrDegraded) {
		t.Fatalf("ReindexCorpus while degraded: %v", err)
	}

	// The supervisor keeps retrying (and failing) while the fault holds.
	waitFor(t, 2*time.Second, "recovery attempts", func() bool {
		return p.StorageHealth().RecoveryAttempts >= 2
	})
	if h := p.StorageHealth(); h.State == StorageOK {
		t.Fatalf("state %q with the fault still armed", h.State)
	} else if h.LastFault == "" || h.Faults == 0 {
		t.Fatalf("fault not recorded: %+v", h)
	}

	// Clear the fault: the next supervised checkpoint rotates the WAL,
	// clears the broken latch and reopens writes — no operator involved.
	fault.ClearWrites()
	waitFor(t, 2*time.Second, "self-healing", func() bool { return p.StorageHealth().State == StorageOK })
	h := p.StorageHealth()
	if h.State != StorageOK || h.Recoveries == 0 {
		t.Fatalf("healed health: %+v", h)
	}
	if err := p.IngestEvent(&ev); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}

	// Nothing acknowledged before the fault was lost along the way.
	if got := p.Stats().Postings; got != prePostings {
		t.Fatalf("postings after recovery: %d, want %d", got, prePostings)
	}
	if _, err := p.AssessID(w.Articles[0].ID); err != nil {
		t.Fatalf("pre-fault article lost: %v", err)
	}
}

// TestDegradedSurvivesRestart: heal, close, and reopen the same
// filesystem — every pre-fault and post-recovery commit must be there.
func TestDegradedSurvivesRestart(t *testing.T) {
	p, mem, fault, w := faultedPlatform(t, nil)
	events := w.Events()
	for i := range events {
		if err := p.IngestEvent(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	rows := tableRows(t, p, ArticlesTable)

	fault.BreakWrites(vfs.ENOSPC)
	ev := synth.Event{
		Type: synth.EventTypeReaction, PostID: "deg-2", Kind: "like",
		UserID: "u", ArticleURL: w.Articles[0].URL, Time: time.Now(),
	}
	_ = p.IngestEvent(&ev)
	if p.StorageHealth().State == StorageOK {
		t.Fatal("not degraded")
	}
	fault.ClearWrites()
	waitFor(t, 2*time.Second, "self-healing", func() bool { return p.StorageHealth().State == StorageOK })
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := NewPlatform(Config{DataDir: "data", StorageFS: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := tableRows(t, re, ArticlesTable)
	if len(got) != len(rows) {
		t.Fatalf("recovered %d articles, want %d", len(got), len(rows))
	}
}

// TestCheckpointFailureDegrades: a checkpoint that hits ENOSPC (not a
// broken WAL) must also degrade the platform, and the supervisor must
// heal it once space returns.
func TestCheckpointFailureDegrades(t *testing.T) {
	p, _, fault, w := faultedPlatform(t, nil)
	defer p.Close()
	for i := range w.Events() {
		if err := p.IngestEvent(&w.Events()[i]); err != nil {
			t.Fatal(err)
		}
	}
	fault.BreakWrites(vfs.ENOSPC)
	if _, err := p.Checkpoint(); err == nil {
		t.Fatal("checkpoint succeeded with writes broken")
	}
	if p.StorageHealth().State == StorageOK {
		t.Fatal("failed checkpoint did not degrade the platform")
	}
	fault.ClearWrites()
	waitFor(t, 2*time.Second, "self-healing", func() bool { return p.StorageHealth().State == StorageOK })
	if p.StorageHealth().Recoveries == 0 {
		t.Fatal("recovery not counted")
	}
}

// TestCheckpointSchedulerInterval: with an interval configured, a durable
// platform checkpoints itself without any operator call.
func TestCheckpointSchedulerInterval(t *testing.T) {
	p, err := NewPlatform(Config{
		DataDir:            t.TempDir(),
		CheckpointInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	h := p.StorageHealth()
	if !h.Scheduler.Enabled {
		t.Fatal("scheduler not enabled")
	}
	waitFor(t, 5*time.Second, "interval-triggered checkpoints", func() bool {
		return p.StorageHealth().Scheduler.IntervalRuns >= 2
	})
	if p.StorageStats().Checkpoints < 2 {
		t.Fatalf("storage saw %d checkpoints", p.StorageStats().Checkpoints)
	}
}

// TestCheckpointSchedulerWALBytes: the byte-growth trigger fires once the
// WAL outgrows the configured bound, then re-arms from the new baseline.
func TestCheckpointSchedulerWALBytes(t *testing.T) {
	p, err := NewPlatform(Config{
		DataDir:            t.TempDir(),
		CheckpointWALBytes: 1, // any append at all is over the bound
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	w := synth.GenerateWorld(synth.Config{Seed: 72, Days: 1, RateScale: 0.2, ReactionScale: 0.1})
	events := w.Events()
	if err := p.IngestEvent(&events[0]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "byte-triggered checkpoint", func() bool {
		return p.StorageHealth().Scheduler.ByteRuns >= 1
	})
	st := p.StorageHealth().Scheduler
	if st.Runs == 0 || st.LastRun.IsZero() {
		t.Fatalf("scheduler stats: %+v", st)
	}
}

// TestSchedLoadLimitFollowsPipeline: the scheduler's sustained-load
// watermark is half the queue capacity of the pipeline the platform
// built, at the production shape and at a shrunken one.
func TestSchedLoadLimitFollowsPipeline(t *testing.T) {
	for _, c := range []struct{ shards, capacity, limit int }{
		{0, 0, 4 * 1024 / 2},
		{2, 8, 8},
	} {
		p, err := NewPlatform(Config{
			DataDir: "data", StorageFS: vfs.NewMem(),
			streamShards: c.shards, streamQueueCapacity: c.capacity,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := p.schedLoadLimit; got != c.limit || got != p.Pipeline.Capacity()/2 {
			t.Errorf("shape %d×%d: schedLoadLimit %d, want %d (pipeline capacity %d)",
				c.shards, c.capacity, got, c.limit, p.Pipeline.Capacity())
		}
		p.Close()
	}
}

// TestInMemoryPlatformNeverDegrades: without a data directory there is no
// WAL to break — the gate must stay open and the health report "ok".
func TestInMemoryPlatformNeverDegrades(t *testing.T) {
	p, err := NewPlatform(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.noteStorageFault(fmt.Errorf("wrapped: %w", rdbms.ErrWALBroken))
	if p.StorageHealth().State != StorageOK {
		t.Fatal("in-memory platform degraded")
	}
	h := p.StorageHealth()
	if h.State != StorageOK || h.Scheduler.Enabled {
		t.Fatalf("in-memory health: %+v", h)
	}
}
