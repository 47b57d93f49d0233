package api

import (
	"net/http"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/synth"
)

// durableFixture builds a platform homed in a temp data directory plus the
// composed server.
func durableFixture(t *testing.T) (*core.Platform, *Server) {
	t.Helper()
	p, err := core.NewPlatform(core.Config{
		Clock:   func() time.Time { return synth.WindowStart.AddDate(0, 0, 5) },
		DataDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	w := synth.GenerateWorld(synth.Config{Seed: 41, Days: 5, RateScale: 0.2, ReactionScale: 0.2})
	if _, err := p.IngestWorld(w); err != nil {
		t.Fatal(err)
	}
	return p, NewServer(p)
}

// TestCheckpointEndpoint: POST /api/checkpoint persists a durable platform
// online and reports the snapshot.
func TestCheckpointEndpoint(t *testing.T) {
	p, srv := durableFixture(t)
	rec, payload := doJSON(t, srv, "POST", "/api/checkpoint", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if payload["snapshot_bytes"].(float64) <= 0 {
		t.Errorf("snapshot bytes: %v", payload["snapshot_bytes"])
	}
	if payload["rows"].(float64) <= 0 {
		t.Errorf("rows: %v", payload["rows"])
	}
	if p.StorageStats().Checkpoints != 1 {
		t.Errorf("checkpoints: %d", p.StorageStats().Checkpoints)
	}
	// A second checkpoint advances the WAL segment.
	_, payload2 := doJSON(t, srv, "POST", "/api/checkpoint", nil)
	if payload2["wal_segment"].(float64) <= payload["wal_segment"].(float64) {
		t.Errorf("segment did not advance: %v -> %v", payload["wal_segment"], payload2["wal_segment"])
	}
}

// TestCheckpointEndpointInMemory: an in-memory platform answers 409.
func TestCheckpointEndpointInMemory(t *testing.T) {
	_, _, srv := apiFixture(t)
	rec, _ := doJSON(t, srv, "POST", "/api/checkpoint", nil)
	if rec.Code != http.StatusConflict {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
}

// TestStatsExposeStorage: GET /api/stats and /api/health carry the storage
// section (partitions, WAL volume, checkpoint history, evictions).
func TestStatsExposeStorage(t *testing.T) {
	_, srv := durableFixture(t)
	if rec, _ := doJSON(t, srv, "POST", "/api/checkpoint", nil); rec.Code != http.StatusOK {
		t.Fatalf("checkpoint: %d", rec.Code)
	}
	rec, payload := doJSON(t, srv, "GET", "/api/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status: %d", rec.Code)
	}
	storage, ok := payload["storage"].(map[string]any)
	if !ok {
		t.Fatalf("no storage section: %v", payload)
	}
	if storage["durable"] != true {
		t.Errorf("durable: %v", storage["durable"])
	}
	if storage["wal_records"].(float64) <= 0 {
		t.Errorf("wal_records: %v", storage["wal_records"])
	}
	if storage["checkpoints"].(float64) != 1 {
		t.Errorf("checkpoints: %v", storage["checkpoints"])
	}
	parts, ok := storage["table_partitions"].(map[string]any)
	if !ok || parts[core.ArticlesTable].(float64) <= 0 {
		t.Errorf("table_partitions: %v", storage["table_partitions"])
	}
	pipeline, ok := payload["pipeline"].(map[string]any)
	if !ok {
		t.Fatalf("no pipeline section: %v", payload)
	}
	if _, ok := pipeline["dead_letter_evicted"]; !ok {
		t.Error("dead_letter_evicted missing from pipeline stats")
	}

	rec, health := doJSON(t, srv, "GET", "/api/health", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("health status: %d", rec.Code)
	}
	hs, ok := health["storage"].(map[string]any)
	if !ok || hs["durable"] != true {
		t.Fatalf("health storage section: %v", health["storage"])
	}
	if hs["checkpoints"].(float64) != 1 {
		t.Errorf("health checkpoints: %v", hs["checkpoints"])
	}
}

// storageStatsFields is the documented JSON shape of the storage section
// served by GET /api/stats (rdbms.StorageStats) — the golden list that
// docs/API.md's field reference is written against. Adding, renaming or
// removing a field must update this list AND docs/API.md together.
var storageStatsFields = []string{
	"dir", // omitempty: present only on durable platforms
	"durable",
	"tables",
	"rows",
	"table_partitions",
	"wal_records",
	"wal_bytes",
	"wal_segment",
	"wal_fsync_policy",
	"wal_fsyncs",
	"wal_fsync_batched_records",
	"checkpoints",
	"last_checkpoint",
	"snapshot_bytes",
	"snapshot_generation",
	"delta_chain_length",
	"compactions",
	"last_checkpoint_full",
	"last_checkpoint_partitions",
	"prune_failures",
	"recovered_records",
	"recovered_truncated",
}

// healthStorageFields is the storage subset served by GET /api/health.
var healthStorageFields = []string{
	"durable", "rows", "partitions", "wal_records", "wal_bytes",
	"wal_fsync_policy", "wal_fsyncs", "checkpoints", "last_checkpoint",
	"snapshot_generation", "delta_chain_length", "prune_failures",
}

// storageHealthFields is the storage state machine served under
// "storage_health" by both GET /api/stats and GET /api/health
// (core.StorageHealth).
var storageHealthFields = []string{
	"state", "since", "last_fault", "faults",
	"recovery_attempts", "recoveries", "scheduler",
}

// storageSchedulerFields is the nested checkpoint-scheduler snapshot
// (core.StorageSchedulerStats).
var storageSchedulerFields = []string{
	"enabled", "interval", "wal_byte_limit", "runs", "interval_runs",
	"byte_runs", "skipped", "failures", "last_error",
}

// TestStorageStatsJSONShape is the golden-field pin: the exact key set of
// the storage payloads served by /api/stats and /api/health must match the
// documented lists, so docs/API.md and the code cannot drift silently.
func TestStorageStatsJSONShape(t *testing.T) {
	_, srv := durableFixture(t)
	if rec, _ := doJSON(t, srv, "POST", "/api/checkpoint", nil); rec.Code != http.StatusOK {
		t.Fatalf("checkpoint: %d", rec.Code)
	}

	assertKeys := func(name string, got map[string]any, want []string) {
		t.Helper()
		wantSet := map[string]bool{}
		for _, k := range want {
			wantSet[k] = true
		}
		for k := range got {
			if !wantSet[k] {
				t.Errorf("%s: undocumented field %q — add it to docs/API.md and the golden list", name, k)
			}
		}
		for _, k := range want {
			if _, ok := got[k]; !ok {
				t.Errorf("%s: documented field %q missing from the payload", name, k)
			}
		}
	}

	rec, payload := doJSON(t, srv, "GET", "/api/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status: %d", rec.Code)
	}
	storage, ok := payload["storage"].(map[string]any)
	if !ok {
		t.Fatalf("no storage section: %v", payload)
	}
	assertKeys("/api/stats storage", storage, storageStatsFields)
	if storage["wal_fsync_policy"] != "checkpoint" {
		t.Errorf("default fsync policy: %v", storage["wal_fsync_policy"])
	}
	if storage["snapshot_generation"].(float64) <= 0 {
		t.Errorf("snapshot_generation after checkpoint: %v", storage["snapshot_generation"])
	}
	assertHealthShape := func(name string, m map[string]any) {
		t.Helper()
		sh, ok := m["storage_health"].(map[string]any)
		if !ok {
			t.Fatalf("%s: no storage_health section: %v", name, m)
		}
		assertKeys(name+" storage_health", sh, storageHealthFields)
		sched, ok := sh["scheduler"].(map[string]any)
		if !ok {
			t.Fatalf("%s: no scheduler section: %v", name, sh)
		}
		assertKeys(name+" scheduler", sched, storageSchedulerFields)
		if sh["state"] != core.StorageOK {
			t.Errorf("%s: healthy platform reports state %v", name, sh["state"])
		}
	}
	assertHealthShape("/api/stats", payload)

	rec, health := doJSON(t, srv, "GET", "/api/health", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("health status: %d", rec.Code)
	}
	hs, ok := health["storage"].(map[string]any)
	if !ok {
		t.Fatalf("no health storage section: %v", health)
	}
	assertKeys("/api/health storage", hs, healthStorageFields)
	assertHealthShape("/api/health", health)
}

// TestReindexEndpointIncremental: the endpoint reports skipped rows by
// default and force re-evaluates everything.
func TestReindexEndpointIncremental(t *testing.T) {
	_, _, srv := apiFixture(t)
	// All rows are current (ingested under the live models): the default
	// incremental run skips everything.
	rec, payload := doJSON(t, srv, "POST", "/api/reindex", map[string]any{})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if payload["articles"].(float64) != 0 || payload["skipped"].(float64) <= 0 {
		t.Errorf("incremental run: articles=%v skipped=%v", payload["articles"], payload["skipped"])
	}
	// Forced run evaluates the whole corpus.
	rec, forced := doJSON(t, srv, "POST", "/api/reindex", map[string]any{"force": true})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if forced["articles"].(float64) != payload["skipped"].(float64) || forced["skipped"].(float64) != 0 {
		t.Errorf("forced run: articles=%v skipped=%v", forced["articles"], forced["skipped"])
	}
}
