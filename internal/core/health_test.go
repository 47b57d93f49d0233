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

// waitFor polls cond until it holds. It fails the test only after
// progress, a counter of steps towards cond, has not moved for stall: a
// loaded machine may slow the supervisor down, but a stuck one stops
// moving.
func waitFor(t *testing.T, stall time.Duration, what string, progress func() uint64, cond func() bool) {
	t.Helper()
	last := progress()
	for moved := time.Now(); time.Since(moved) < stall; time.Sleep(2 * time.Millisecond) {
		if cond() {
			return
		}
		if n := progress(); n != last {
			moved, last = time.Now(), n
		}
	}
	t.Fatalf("no progress towards %s for %v (progress counter at %d)", what, stall, last)
}

// maxFailedHeals bounds the recovery attempts that may fail after a fault
// clears; only the one in flight as it clears should.
const maxFailedHeals = 3

// waitHealed waits for the supervisor to return p to ok after its fault
// cleared. Each recovery attempt counts as progress, but a heal that keeps
// failing fails the test after maxFailedHeals attempts.
func waitHealed(t *testing.T, p *Platform, stall time.Duration) {
	t.Helper()
	from := p.StorageHealth().RecoveryAttempts
	attempts := func() uint64 { return p.StorageHealth().RecoveryAttempts }
	waitFor(t, stall, "self-healing", attempts, func() bool {
		h := p.StorageHealth()
		if h.State == StorageDegraded && h.RecoveryAttempts-from > maxFailedHeals {
			t.Fatalf("%d recovery attempts failed after the fault cleared: %+v", h.RecoveryAttempts-from, h)
		}
		return h.State == StorageOK
	})
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
	attempts := func() uint64 { return p.StorageHealth().RecoveryAttempts }
	waitFor(t, 2*time.Second, "recovery attempts", attempts, func() bool {
		return attempts() >= 2
	})
	if h := p.StorageHealth(); h.State == StorageOK {
		t.Fatalf("state %q with the fault still armed", h.State)
	} else if h.LastFault == "" || h.Faults == 0 {
		t.Fatalf("fault not recorded: %+v", h)
	}

	// Clear the fault: the next supervised checkpoint rotates the WAL,
	// clears the broken latch and reopens writes — no operator involved.
	fault.ClearWrites()
	waitHealed(t, p, 2*time.Second)
	h := p.StorageHealth()
	if h.State != StorageOK || h.Recoveries == 0 {
		t.Fatalf("healed health: %+v", h)
	}
	if err := p.IngestEvent(&ev); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
	// The pipeline paused with the fault resumes with the heal: a streamed
	// event commits.
	committed := p.StreamStats().Committed
	streamed := ev
	streamed.PostID = "deg-1s"
	if err := p.StreamEvent(&streamed, false); err != nil {
		t.Fatalf("stream after recovery: %v", err)
	}
	stages := func() uint64 { st := p.StreamStats(); return st.Evaluated + st.Committed }
	waitFor(t, 2*time.Second, "a streamed event to commit after recovery", stages, func() bool {
		return p.StreamStats().Committed > committed
	})

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
	waitHealed(t, p, 2*time.Second)
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
	waitHealed(t, p, 2*time.Second)
	if p.StorageHealth().Recoveries == 0 {
		t.Fatal("recovery not counted")
	}
}

// TestManualCheckpointKicksRecovery: POST /api/checkpoint while degraded
// answers ErrDegraded but wakes the supervisor, so an operator who freed
// the disk does not wait out the backoff.
func TestManualCheckpointKicksRecovery(t *testing.T) {
	p, _, fault, _ := faultedPlatform(t, func(c *Config) {
		c.recoveryBackoff = time.Hour
		c.recoveryMaxBackoff = time.Hour
	})
	defer p.Close()
	fault.BreakWrites(vfs.ENOSPC)
	if _, err := p.Checkpoint(); err == nil {
		t.Fatal("checkpoint succeeded with writes broken")
	}
	// The fault's own kick runs one attempt at once; it fails, and the
	// next one is an hour away.
	attempts := func() uint64 { return p.StorageHealth().RecoveryAttempts }
	waitFor(t, 2*time.Second, "the first recovery attempt", attempts, func() bool {
		h := p.StorageHealth()
		return h.RecoveryAttempts == 1 && h.State == StorageDegraded
	})
	fault.ClearWrites()
	if _, err := p.Checkpoint(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Checkpoint while degraded: %v", err)
	}
	waitHealed(t, p, 2*time.Second)
}

// TestCheckpointSchedulerInterval: with an interval configured, a durable
// platform checkpoints itself without any operator call. The interval
// runs on the wall clock, so a data clock pinned to one instant, as
// Bootstrap pins it, does not stop it.
func TestCheckpointSchedulerInterval(t *testing.T) {
	pinned := synth.WindowStart.AddDate(0, 0, 15)
	for _, c := range []struct {
		name  string
		clock func() time.Time
	}{
		{"wall clock", nil},
		{"pinned data clock", func() time.Time { return pinned }},
	} {
		t.Run(c.name, func(t *testing.T) {
			start := time.Now()
			p, err := NewPlatform(Config{
				Clock:              c.clock,
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
			runs := func() uint64 { return p.StorageHealth().Scheduler.IntervalRuns }
			waitFor(t, 5*time.Second, "interval-triggered checkpoints", runs, func() bool {
				return runs() >= 2
			})
			if p.StorageStats().Checkpoints < 2 {
				t.Fatalf("storage saw %d checkpoints", p.StorageStats().Checkpoints)
			}
			if since := p.StorageHealth().Since; since.Before(start) || since.After(time.Now()) {
				t.Fatalf("health since %v, outside the test's run from %v", since, start)
			}
		})
	}
}

// TestCheckpointSchedulerWALBytes: the byte-growth trigger fires once the
// WAL outgrows the configured bound, then re-arms from the new baseline.
// It runs alone, as the benchmark harness configures it, and beside an
// hour-long interval, which counts from the supervisor's start until the
// first checkpoint and so is never due here.
func TestCheckpointSchedulerWALBytes(t *testing.T) {
	for _, interval := range []time.Duration{0, time.Hour} {
		t.Run("interval="+interval.String(), func(t *testing.T) {
			p, err := NewPlatform(Config{
				DataDir:            t.TempDir(),
				CheckpointWALBytes: 1, // any append at all is over the bound
				CheckpointInterval: interval,
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
			runs := func() uint64 { return p.StorageHealth().Scheduler.ByteRuns }
			waitFor(t, 5*time.Second, "byte-triggered checkpoint", runs, func() bool {
				return runs() >= 1
			})
			st := p.StorageHealth().Scheduler
			if st.Runs == 0 || st.IntervalRuns != 0 || p.StorageStats().LastCheckpoint.IsZero() {
				t.Fatalf("scheduler stats: %+v", st)
			}
			// Re-armed: with no append since, four more polls find nothing due.
			time.Sleep(4 * schedBytePoll)
			if again := p.StorageHealth().Scheduler; again.ByteRuns != st.ByteRuns || again.IntervalRuns != 0 {
				t.Fatalf("scheduler fired again without WAL growth: %+v → %+v", st, again)
			}
		})
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

// TestSchedulerSkipsUnderLoad: a due checkpoint waits while more events
// are queued than the load watermark (half of a 1 × 8 pipeline, so 4),
// and runs once the queue drains.
func TestSchedulerSkipsUnderLoad(t *testing.T) {
	p, err := NewPlatform(Config{
		DataDir: "data", StorageFS: vfs.NewMem(),
		CheckpointWALBytes: 1, // any append at all is over the bound
		streamShards:       1, streamQueueCapacity: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.schedLoadLimit != 4 {
		t.Fatalf("schedLoadLimit %d, want 4", p.schedLoadLimit)
	}
	w := synth.GenerateWorld(synth.Config{Seed: 73, Days: 1, RateScale: 0.2, ReactionScale: 0.1})
	events := w.Events()
	p.Pipeline.Pause()
	for i := 1; i <= 5; i++ {
		if err := p.StreamEvent(&events[i], false); err != nil {
			t.Fatal(err)
		}
	}
	if d := p.Pipeline.Depth(); d != 5 {
		t.Fatalf("queue depth %d, want 5", d)
	}
	// A synchronous write grows the WAL, so the byte trigger is due.
	if err := p.IngestEvent(&events[0]); err != nil {
		t.Fatal(err)
	}
	sched := func() StorageSchedulerStats { return p.StorageHealth().Scheduler }
	skipped := func() uint64 { return sched().Skipped }
	waitFor(t, 2*time.Second, "a checkpoint skipped under load", skipped, func() bool {
		return skipped() >= 1
	})
	// The supervisor is one goroutine: once it has skipped, no earlier
	// run is still in flight.
	before := sched()
	waitFor(t, 2*time.Second, "three more skipped checkpoints", skipped, func() bool {
		return skipped() >= before.Skipped+3
	})
	if after := sched(); after.Runs != before.Runs || after.ByteRuns != before.ByteRuns {
		t.Fatalf("a checkpoint ran over the load watermark: %+v → %+v", before, after)
	}

	p.Pipeline.Resume()
	runs := func() uint64 { return sched().Runs }
	waitFor(t, 2*time.Second, "a checkpoint once the queue drained", runs, func() bool {
		return runs() > before.Runs
	})
}

// TestFaultPausesPipeline: the first storage fault pauses the pipeline,
// so events that reached a broken store wait on their shard instead of
// burning their retries into dead letters, and commit once it heals.
func TestFaultPausesPipeline(t *testing.T) {
	p, _, fault, w := faultedPlatform(t, func(c *Config) {
		c.streamShards, c.streamQueueCapacity = 1, 8
	})
	defer p.Close()
	events := w.Events()
	for i := range events {
		if err := p.IngestEvent(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	p.Pipeline.Pause()
	const n = 4
	for i := range n {
		ev := synth.Event{
			Type: synth.EventTypeReaction, PostID: fmt.Sprint("held-", i), Kind: "like",
			UserID: "u", ArticleURL: w.Articles[0].URL, Time: time.Now(),
		}
		if err := p.StreamEvent(&ev, false); err != nil {
			t.Fatal(err)
		}
	}
	fault.BreakWrites(vfs.ENOSPC)
	// The batch fails against the broken WAL, which degrades the platform.
	p.Pipeline.Resume()
	attempts := func() uint64 { return p.StorageHealth().RecoveryAttempts }
	// Eight failed recovery attempts wait out at least 110 ms of backoff,
	// several times the retry budget of an event that keeps running.
	waitFor(t, 2*time.Second, "recovery attempts under the fault", attempts, func() bool {
		return attempts() >= 8
	})
	st := p.StreamStats()
	if st.DeadLettered != 0 || st.Committed != 0 || st.QueueDepth != n {
		t.Fatalf("under the fault: dead letters %d, committed %d, queued %d; want 0, 0, %d",
			st.DeadLettered, st.Committed, st.QueueDepth, n)
	}

	fault.ClearWrites()
	waitHealed(t, p, 2*time.Second)
	stages := func() uint64 { st := p.StreamStats(); return st.Committed + st.DeadLettered }
	waitFor(t, 2*time.Second, "the held events to commit", stages, func() bool {
		return stages() >= n
	})
	if st := p.StreamStats(); st.Committed != n || st.DeadLettered != 0 {
		t.Fatalf("after the heal: committed %d, dead letters %d; want %d, 0", st.Committed, st.DeadLettered, n)
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
