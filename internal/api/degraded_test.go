package api

import (
	"fmt"
	"net/http"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rdbms/vfs"
	"repro/internal/synth"
)

// degradedFixture builds a durable platform on a fault-injecting
// in-memory filesystem, pre-loaded with a small ingested world.
func degradedFixture(t *testing.T) (*core.Platform, *vfs.Fault, *synth.World, *Server) {
	t.Helper()
	fault := vfs.NewFault(vfs.NewMem())
	p, err := core.NewPlatform(core.Config{
		DataDir:        "data",
		StorageFS:      fault,
		WALFsyncPolicy: "always",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	w := synth.GenerateWorld(synth.Config{Seed: 73, Days: 2, RateScale: 0.2, ReactionScale: 0.2})
	events := w.Events()
	for i := range events {
		if err := p.IngestEvent(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	return p, fault, w, NewServer(p)
}

// waitHealth polls p's StorageHealth until cond holds. It fails the test
// only after progress, a counter of steps towards cond, has not moved for
// stall: a loaded machine may slow the supervisor down, but a stuck one
// stops moving.
func waitHealth(t *testing.T, p *core.Platform, stall time.Duration, what string,
	progress func(core.StorageHealth) uint64, cond func(core.StorageHealth) bool) {
	t.Helper()
	last := progress(p.StorageHealth())
	for moved := time.Now(); time.Since(moved) < stall; time.Sleep(2 * time.Millisecond) {
		h := p.StorageHealth()
		if cond(h) {
			return
		}
		if n := progress(h); n != last {
			moved, last = time.Now(), n
		}
	}
	t.Fatalf("no progress towards %s for %v: %+v", what, stall, p.StorageHealth())
}

// TestDegradedModeHTTP pins the API contract of degraded read-only mode:
// /api/health answers 503 with the state in the body, reads keep
// serving 200, every write endpoint answers 503, and after self-healing
// the whole surface returns to normal.
func TestDegradedModeHTTP(t *testing.T) {
	p, fault, w, srv := degradedFixture(t)

	// Break storage and trip the platform via a failing checkpoint.
	fault.BreakWrites(vfs.ENOSPC)
	if _, err := p.Checkpoint(); err == nil {
		t.Fatal("checkpoint succeeded with writes broken")
	}
	if p.StorageHealth().State == core.StorageOK {
		t.Fatal("platform not degraded")
	}

	rec, payload := doJSON(t, srv, "GET", "/api/health", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("health while degraded: %d", rec.Code)
	}
	if st := payload["status"]; st != core.StorageDegraded && st != core.StorageRecovering {
		t.Fatalf("health status: %v", st)
	}

	// Reads keep serving.
	rec, _ = doJSON(t, srv, "GET", "/api/assess?id="+w.Articles[0].ID, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("read while degraded: %d", rec.Code)
	}
	rec, stats := doJSON(t, srv, "GET", "/api/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats while degraded: %d", rec.Code)
	}
	if sh := stats["storage_health"].(map[string]any); sh["state"] == core.StorageOK {
		t.Fatalf("stats state: %v", sh["state"])
	}

	// Writes answer 503 across the board.
	ingestBody := map[string]any{"events": []map[string]any{{
		"type": "reaction", "post_id": "deg-http", "kind": "like",
		"user_id": "u", "article_url": w.Articles[0].URL,
	}}}
	reviewBody := map[string]any{
		"article_id": w.Articles[0].ID, "reviewer": "dr-deg", "scores": map[string]int{
			"factual-accuracy": 4, "scientific-understanding": 4, "logic-reasoning": 4,
			"precision-clarity": 4, "sources-quality": 4, "fairness": 4, "clickbaitness": 4,
		},
	}
	for _, probe := range []struct {
		method, path string
		body         any
	}{
		{"POST", "/api/ingest", ingestBody},
		{"POST", "/api/reviews", reviewBody},
		{"POST", "/api/ingest/replay", nil},
		{"POST", "/api/checkpoint", nil},
		{"POST", "/api/reindex", nil},
	} {
		rec, _ := doJSON(t, srv, probe.method, probe.path, probe.body)
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("%s %s while degraded: %d (want 503)", probe.method, probe.path, rec.Code)
		}
	}

	// Self-healing: clear the fault, wait for the supervisor (its retry
	// delay starts at 100ms and doubles per failed attempt), and the
	// surface reopens.
	fault.ClearWrites()
	// Each recovery attempt is progress, but at most three may fail after
	// the fault clears; only the one in flight as it clears should.
	from := p.StorageHealth().RecoveryAttempts
	attempts := func(h core.StorageHealth) uint64 { return h.RecoveryAttempts }
	waitHealth(t, p, 10*time.Second, "self-healing", attempts, func(h core.StorageHealth) bool {
		if h.State == core.StorageDegraded && h.RecoveryAttempts-from > 3 {
			t.Fatalf("%d recovery attempts failed after the fault cleared: %+v", h.RecoveryAttempts-from, h)
		}
		return h.State == core.StorageOK
	})
	rec, payload = doJSON(t, srv, "GET", "/api/health", nil)
	if rec.Code != http.StatusOK || payload["status"] != core.StorageOK {
		t.Fatalf("health after healing: %d %v", rec.Code, payload["status"])
	}
	if h := payload["storage_health"].(map[string]any); h["recoveries"].(float64) < 1 {
		t.Fatalf("recoveries after healing: %v", h["recoveries"])
	}
	rec, _ = doJSON(t, srv, "POST", "/api/ingest", ingestBody)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("ingest after healing: %d", rec.Code)
	}
	rec, _ = doJSON(t, srv, "POST", "/api/checkpoint", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("checkpoint after healing: %d", rec.Code)
	}
}

// TestHealthEndpointSchedulerStats: the scheduler's counters ride along
// on /api/health for a platform with the self-driving checkpointer on.
func TestHealthEndpointSchedulerStats(t *testing.T) {
	fault := vfs.NewFault(vfs.NewMem())
	p, err := core.NewPlatform(core.Config{
		DataDir:            "data",
		StorageFS:          fault,
		CheckpointInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	srv := NewServer(p)
	runs := func(h core.StorageHealth) uint64 { return h.Scheduler.Runs }
	waitHealth(t, p, 5*time.Second, "a scheduled checkpoint", runs, func(h core.StorageHealth) bool {
		return runs(h) > 0
	})
	rec, payload := doJSON(t, srv, "GET", "/api/health", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("health: %d %s", rec.Code, rec.Body)
	}
	sched := payload["storage_health"].(map[string]any)["scheduler"].(map[string]any)
	if sched["enabled"] != true {
		t.Fatalf("scheduler not enabled: %v", sched)
	}
	if sched["runs"].(float64) < 1 {
		t.Fatalf("scheduler runs: %v", sched["runs"])
	}
	if fmt.Sprint(sched["interval"]) != "10ms" {
		t.Errorf("scheduler interval: %v", sched["interval"])
	}
}
