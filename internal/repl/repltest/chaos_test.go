package repltest

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rdbms/vfs"
	"repro/internal/stream"
	"repro/internal/synth"
)

// TestChaosConvergence is the harness's headline scenario: both
// platforms live, the primary ingesting a synthetic world through the
// pipeline while checkpoints rotate and compact its WAL, the link is cut
// mid-frame repeatedly, and the primary's disk fails and heals once
// mid-run. At quiesce, every table must be row for row Identical across
// the pair.
func TestChaosConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run is heavyweight; covered by the full run")
	}
	pair := NewPair(t, func(c *core.Config) {
		c.CheckpointDeltaLimit = 2 // force delta-chain compaction mid-run
	}, nil)
	p := pair.Primary.Platform

	w := synth.GenerateWorld(synth.Config{Seed: 13, Days: 8, RateScale: 0.4, ReactionScale: 0.3})
	events := w.Events()
	t.Logf("chaos run over %d events", len(events))

	faultAt := len(events) / 2
	healAt := faultAt + len(events)/8
	for i := range events {
		// Link chaos: tear the WAL stream mid-frame on a fixed cadence.
		if i%401 == 400 {
			pair.Proxy.CutWALAfter(int64(100 + i))
		}
		// Checkpoint cadence: rotation, prune and (DeltaLimit 2)
		// periodic compaction while both sides run hot.
		if i%701 == 700 {
			_, err := p.Checkpoint()
			if err != nil && !errors.Is(err, core.ErrDegraded) && !(i >= faultAt && i < healAt) {
				t.Fatalf("checkpoint at %d: %v", i, err)
			}
		}
		// Disk chaos: break the primary's writes once, heal later; the
		// supervisor recovers by checkpointing onto a fresh segment.
		if i == faultAt {
			pair.Primary.Fault.BreakWrites(vfs.ENOSPC)
		}
		if i == healAt {
			pair.Primary.Fault.ClearWrites()
		}

		// Non-blocking send: while the disk fault has the pipeline paused
		// (or the queues briefly saturate around a reshard), events are
		// dropped — convergence compares primary against follower, not
		// against the world, so drops are chaos, not failures. A blocking
		// send would deadlock here: a paused pipeline never frees queue
		// space, and the loop would never reach the heal point.
		err := p.StreamEvent(&events[i], false)
		switch {
		case err == nil:
		case errors.Is(err, core.ErrDegraded):
		case errors.Is(err, stream.ErrFull), errors.Is(err, stream.ErrThrottled):
		default:
			t.Fatalf("event %d: %v", i, err)
		}
	}

	waitHealthy(t, p, 30*time.Second)
	waitPipelineDrained(t, p, 60*time.Second)
	if _, err := p.Checkpoint(); err != nil {
		t.Fatalf("final checkpoint: %v", err)
	}

	WaitConvergedPair(t, pair, 60*time.Second)
	TablesEqual(t, p.DB, pair.Follower.Platform.DB)

	st := pair.Follower.Platform.ReplicationStatus()
	if st == nil || !st.Connected {
		t.Fatalf("follower link state after chaos: %+v", st)
	}
	if st.RecordsApplied == 0 {
		t.Fatal("follower applied nothing — the chaos disconnected the pair entirely")
	}
	sh := pair.Primary.Platform.StorageHealth()
	if sh.Faults == 0 {
		t.Fatal("disk fault never latched — the chaos never fired")
	}
	t.Logf("chaos done: %d records applied, %d reconnects, %d resyncs, primary faults %d",
		st.RecordsApplied, st.Reconnects, st.FullResyncs, sh.Faults)
}

// maxFailedHeals bounds the recovery attempts that may fail once the
// fault has cleared; only the one in flight as it clears should.
const maxFailedHeals = 3

// waitHealthy blocks until the platform has left degraded mode, its fault
// already cleared. Each recovery attempt counts as progress, so it fails
// only after stall with no attempt, or once more than maxFailedHeals
// attempts have failed.
func waitHealthy(t testing.TB, p *core.Platform, stall time.Duration) {
	t.Helper()
	from := p.StorageHealth().RecoveryAttempts
	last := from
	for moved := time.Now(); time.Since(moved) < stall; time.Sleep(25 * time.Millisecond) {
		h := p.StorageHealth()
		if h.State == core.StorageOK {
			return
		}
		if h.State == core.StorageDegraded && h.RecoveryAttempts-from > maxFailedHeals {
			t.Fatalf("%d recovery attempts failed after the fault cleared: %+v", h.RecoveryAttempts-from, h)
		}
		if h.RecoveryAttempts != last {
			moved, last = time.Now(), h.RecoveryAttempts
		}
	}
	t.Fatalf("platform still degraded, no recovery attempt for %v: %+v", stall, p.StorageHealth())
}
