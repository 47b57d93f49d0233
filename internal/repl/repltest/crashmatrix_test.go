package repltest

import (
	"testing"
	"time"

	"repro/internal/rdbms"
	"repro/internal/repl"
)

// TestFollowerCrashMatrix power-cuts the follower at every sync/rename
// boundary during live replay and pins, for each crash point, that the
// restarted follower reconnects from its durable cursor — no snapshot
// generation is refetched — and reconverges byte-for-byte with the
// primary.
//
// The scenario per crash point: a primary with a checkpointed base
// corpus, a follower fully synced onto it (cursor durable), then a
// fault armed at the k-th boundary while the primary streams 40 more
// rows. A probe run with no fault armed sizes the matrix; short mode
// samples the boundaries evenly, first and last included.
func TestFollowerCrashMatrix(t *testing.T) {
	boundaries := crashScenario(t, 0)
	if boundaries < 10 {
		t.Fatalf("probe counted only %d replay boundaries; matrix would be vacuous", boundaries)
	}
	t.Logf("crash matrix over %d replay boundaries", boundaries)
	for _, k := range sampleBoundaries(boundaries, testing.Short()) {
		k := k
		t.Run(boundaryName(k), func(t *testing.T) {
			crashScenario(t, k)
		})
	}
}

// crashScenario runs one primary+follower cycle. k == 0 is the probe:
// no fault armed, returns the number of boundaries the replay phase
// crossed. k > 0 arms a power cut at the k-th replay boundary, then
// restarts the follower from the same filesystem and pins cursor
// reconnect plus convergence.
func crashScenario(t *testing.T, k int) int {
	t.Helper()
	primary, proxy := NewLitePrimary(t)
	primary.InsertN(0, 20)
	if _, err := primary.DB.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	follower := NewLiteFollower(t, proxy, "f-matrix", nil)
	WaitCaughtUp(t, primary, follower, 10*time.Second)
	// Let the trailing heartbeat flush persist the cursor so the
	// boundary count is quiescent before arming.
	time.Sleep(400 * time.Millisecond)
	b0 := follower.Fault.Boundaries()

	if k > 0 {
		follower.Fault.CrashAtBoundary(b0 + k)
	}
	primary.InsertN(20, 60)

	if k == 0 {
		WaitCaughtUp(t, primary, follower, 10*time.Second)
		TablesEqual(t, primary.DB, follower.DB)
		return follower.Fault.Boundaries() - b0
	}

	// Wait for the armed cut to fire — or, when this run crossed fewer
	// boundaries than the probe (replay batching varies), for plain
	// convergence.
	if !waitApplying(follower, 15*time.Second, func() bool {
		return follower.Fault.Crashed() || caughtUp(primary, follower)
	}) {
		t.Fatalf("boundary %d: neither crashed nor converged", k)
	}
	if !follower.Fault.Crashed() {
		TablesEqual(t, primary.DB, follower.DB)
		return 0
	}

	// Power cut: drop the process, discard unsynced bytes, restart on
	// the same filesystem. The recovered cursor must carry the sync —
	// reconnect without touching a snapshot generation — and the replay
	// must reconverge exactly.
	follower.Crash()
	gens := proxy.GenFetches()
	restarted := ReopenLiteFollower(t, follower.Mem, proxy, "f-matrix", nil)
	WaitCaughtUp(t, primary, restarted, 15*time.Second)
	if got := proxy.GenFetches(); got != gens {
		t.Fatalf("boundary %d: restart fell back to full resync (%d generation fetches)", k, got-gens)
	}
	if st := restarted.Client.Status(); st.FullResyncs != 0 {
		t.Fatalf("boundary %d: restarted client resynced %d times", k, st.FullResyncs)
	}
	TablesEqual(t, primary.DB, restarted.DB)
	return 0
}

// waitApplying polls until done holds, or until the follower's applied
// record count has not moved for stall, and reports whether done held.
func waitApplying(follower *LiteNode, stall time.Duration, done func() bool) bool {
	last := follower.Client.Status().RecordsApplied
	for moved := time.Now(); time.Since(moved) < stall; time.Sleep(5 * time.Millisecond) {
		if done() {
			return true
		}
		if n := follower.Client.Status().RecordsApplied; n != last {
			moved, last = time.Now(), n
		}
	}
	return done()
}

// caughtUp reports whether the follower's applied position equals the
// quiesced primary's WAL position.
func caughtUp(primary, follower *LiteNode) bool {
	pseg := primary.DB.CurrentWALSegment()
	psize, err := primary.DB.WALSegmentSize(pseg)
	if err != nil {
		return false
	}
	st := follower.Client.Status()
	return st.Connected && st.Segment == pseg && st.Offset == psize
}

// sampleBoundaries returns the crash points to exercise: every boundary
// in a full run, 24 evenly spaced (first and last included) in short
// mode.
func sampleBoundaries(n int, short bool) []int {
	const shortSamples = 24
	if !short || n <= shortSamples {
		ks := make([]int, n)
		for i := range ks {
			ks[i] = i + 1
		}
		return ks
	}
	ks := make([]int, 0, shortSamples)
	for i := 0; i < shortSamples; i++ {
		k := 1 + i*(n-1)/(shortSamples-1)
		if len(ks) == 0 || ks[len(ks)-1] != k {
			ks = append(ks, k)
		}
	}
	return ks
}

func boundaryName(k int) string {
	return "boundary-" + itoa(k)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// TestCursorSurvivesTornCursorWrite pins the ordering contract directly:
// a crash losing the latest cursor write may only ever leave the cursor
// BEHIND the applied data, never ahead — the restarted follower
// re-applies idempotently instead of skipping records.
func TestCursorSurvivesTornCursorWrite(t *testing.T) {
	primary, proxy := NewLitePrimary(t)
	primary.InsertN(0, 10)
	if _, err := primary.DB.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	follower := NewLiteFollower(t, proxy, "f-torn", nil)
	WaitCaughtUp(t, primary, follower, 10*time.Second)
	time.Sleep(400 * time.Millisecond)

	// Tear the next follower write half-way: whichever record or cursor
	// upsert lands next is torn, and recovery truncates it away.
	follower.Fault.TearWrite()
	primary.InsertN(10, 30)
	waitApplying(follower, 10*time.Second, func() bool {
		return follower.Client.Status().LastError != "" || caughtUp(primary, follower)
	})
	follower.Crash()

	gens := proxy.GenFetches()
	restarted := ReopenLiteFollower(t, follower.Mem, proxy, "f-torn", nil)
	WaitCaughtUp(t, primary, restarted, 15*time.Second)
	if got := proxy.GenFetches(); got != gens {
		t.Fatalf("torn write forced a full resync (%d generation fetches)", got-gens)
	}
	TablesEqual(t, primary.DB, restarted.DB)
	cur, err := cursorRow(restarted.DB)
	if err != nil {
		t.Fatalf("restarted follower has no cursor: %v", err)
	}
	if cur[1].Int() <= 0 {
		t.Fatalf("cursor row malformed: %v", cur)
	}
}

func cursorRow(db *rdbms.DB) (rdbms.Row, error) {
	tbl, err := db.Table(repl.CursorTable)
	if err != nil {
		return nil, err
	}
	return tbl.Get(rdbms.String("cursor"))
}
