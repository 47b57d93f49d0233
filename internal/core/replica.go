package core

// Follower mode: with Config.ReplicaOf set, the platform opens its own
// durable store, bootstraps it from the primary's snapshot chain, and
// replays the primary's WAL continuously (internal/repl.Client). The
// whole read surface — assessments, analytics, stats, the SSE feed —
// serves locally, while every write entry point fails fast with
// ErrFollower so the API layer can answer 503 pointing at the primary.

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/repl"
)

// ErrFollower is returned by write entry points (ingest, replay,
// reindex) on a follower platform. The API layer maps it to 503 with the
// primary's URL; the error string carries the URL too.
var ErrFollower = errors.New("core: read-only follower, writes go to the primary")

// replSyncTimeout bounds the blocking initial sync during NewPlatform: a
// primary that cannot ship its snapshot chain in this window fails
// assembly rather than hanging it.
const replSyncTimeout = 5 * time.Minute

// IsFollower reports whether the platform replicates from a primary.
func (p *Platform) IsFollower() bool { return p.replica != nil }

// PrimaryURL returns the replicated primary's base URL ("" on primaries).
func (p *Platform) PrimaryURL() string { return p.primaryURL }

// ReplicationStatus snapshots the replication link (nil on primaries).
// It is surfaced as storage_health.replication on /api/stats and
// /api/health.
func (p *Platform) ReplicationStatus() *repl.Status {
	if p.replica == nil {
		return nil
	}
	st := p.replica.Status()
	return &st
}

// writeGate fails writes fast while the platform is in degraded read-only
// mode (ErrDegraded) or is a follower (ErrFollower).
func (p *Platform) writeGate() error {
	if p.degraded.Load() {
		return ErrDegraded
	}
	if p.replica != nil {
		return p.followerErr
	}
	return nil
}

// setupReplica runs the follower's initial sync. It must run BEFORE
// createSchemas: the generation chain creates the tables with the
// primary's partition layout, which has to win over local defaults (a
// partition-count mismatch is unrecoverable corruption for later
// generation applies).
func (p *Platform) setupReplica(cfg Config) error {
	if cfg.ReplicaOf == "" {
		return nil
	}
	if cfg.DataDir == "" {
		return errors.New("core: ReplicaOf requires DataDir — the follower persists its replica and cursor")
	}
	// The follower identity keys the primary-side prune holds; derive it
	// from the data directory so a restarted follower reclaims (and a
	// resync releases) its own holds.
	h := fnv.New32a()
	_, _ = h.Write([]byte(cfg.DataDir))
	client, err := repl.NewClient(repl.ClientConfig{
		Primary: cfg.ReplicaOf,
		DB:      p.DB,
		ID:      fmt.Sprintf("f-%08x", h.Sum32()),
		Metrics: p.Metrics,
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), replSyncTimeout)
	defer cancel()
	if err := client.EnsureSynced(ctx); err != nil {
		return fmt.Errorf("core: initial replica sync: %w", err)
	}
	p.replica = client
	p.primaryURL = cfg.ReplicaOf
	p.followerErr = fmt.Errorf("%w: %s", ErrFollower, cfg.ReplicaOf)
	return nil
}
