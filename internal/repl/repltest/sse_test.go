package repltest

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/synth"
)

// TestSSEEquivalence pins the live-feed contract across the link: a
// subscriber on the follower's bus sees the same committed-assessment
// byte sequence as a subscriber on the primary's bus — the frames are
// fanned out verbatim over the WAL stream — modulo bounded lag.
func TestSSEEquivalence(t *testing.T) {
	pair := NewPair(t, nil, nil)

	// Subscribe both ends before any traffic; buffers sized so nothing
	// drops and the comparison is exact, not sampled.
	psub := pair.Primary.Platform.Bus.Subscribe(8192)
	defer psub.Cancel()
	fsub := pair.Follower.Platform.Bus.Subscribe(8192)
	defer fsub.Cancel()

	w := synth.GenerateWorld(synth.Config{Seed: 11, Days: 5, RateScale: 0.3, ReactionScale: 0.2})
	events := w.Events()
	for i := range events {
		if err := pair.Primary.Platform.StreamEvent(&events[i], true); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
	}
	waitPipelineDrained(t, pair.Primary.Platform, 30*time.Second)
	WaitConvergedPair(t, pair, 30*time.Second)

	primarySeq := drainFeed(psub.C)
	if len(primarySeq) == 0 {
		t.Fatal("primary published no feed events")
	}
	// Bounded lag: the follower's feed trails by at most the in-flight
	// frames; after convergence plus one poll tick it has everything. The
	// wait ends once the feed has not grown for 10 s.
	var followerSeq [][]byte
	for moved := time.Now(); len(followerSeq) < len(primarySeq) && time.Since(moved) < 10*time.Second; time.Sleep(20 * time.Millisecond) {
		if fresh := drainFeed(fsub.C); len(fresh) > 0 {
			followerSeq = append(followerSeq, fresh...)
			moved = time.Now()
		}
	}

	pDropped := pair.Primary.Platform.Bus.Stats().Dropped
	fDropped := pair.Follower.Platform.Bus.Stats().Dropped
	if pDropped != 0 || fDropped != 0 {
		t.Fatalf("subscriber drops (primary %d, follower %d) void the comparison",
			pDropped, fDropped)
	}
	if len(followerSeq) != len(primarySeq) {
		t.Fatalf("follower saw %d feed events, primary %d", len(followerSeq), len(primarySeq))
	}
	for i := range primarySeq {
		if !bytes.Equal(primarySeq[i], followerSeq[i]) {
			t.Fatalf("feed diverged at event %d:\n  primary:  %s\n  follower: %s",
				i, primarySeq[i], followerSeq[i])
		}
	}
}

// drainFeed collects whatever the subscription has buffered right now.
func drainFeed(c <-chan []byte) [][]byte {
	var out [][]byte
	for {
		select {
		case p, ok := <-c:
			if !ok {
				return out
			}
			out = append(out, p)
		default:
			return out
		}
	}
}

// waitPipelineDrained blocks until the adaptive pipeline has nothing in
// flight and its queues are empty, stable across two polls. It fails only
// after stall without progress: no event committed, dead-lettered or
// retried, and the queue no shallower than at the poll before.
func waitPipelineDrained(t testing.TB, p *core.Platform, stall time.Duration) {
	t.Helper()
	stable, depth := 0, 0
	var done uint64
	for moved := time.Now(); time.Since(moved) < stall; time.Sleep(50 * time.Millisecond) {
		st := p.StreamStats()
		idle := st.Inflight == 0 && st.QueueDepth == 0
		if idle {
			if stable++; stable >= 2 {
				return
			}
		} else {
			stable = 0
		}
		n := st.Committed + st.DeadLettered + st.Retried
		if n > done || st.QueueDepth < depth {
			moved = time.Now()
		}
		done, depth = n, st.QueueDepth
	}
	t.Fatalf("pipeline did not drain, no progress for %v: %+v", stall, p.StreamStats())
}
