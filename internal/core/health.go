package core

// Storage health, degraded read-only mode and self-healing (robustness
// layer over the durable store): when the WAL breaks — an append failed
// after acknowledging earlier writes, so rdbms latches ErrWALBroken and
// refuses further mutations — or a checkpoint fails (ENOSPC, torn
// snapshot write), the platform does not fall over. It enters degraded
// read-only mode: assessment, analytics and the live feed keep serving
// from memory, the streaming pipeline pauses (accepted events wait on
// their shards instead of burning retry budgets against a broken log),
// and every write entry point fails fast with ErrDegraded (the API layer
// maps it to 503). A supervisor goroutine then retries the checkpoint
// with capped exponential backoff — a successful checkpoint rotates the
// WAL onto a fresh segment, which clears the broken latch — and on
// success resumes the pipeline and reopens writes automatically.
//
// The same goroutine doubles as the self-driving checkpoint scheduler:
// with Config.CheckpointInterval and/or Config.CheckpointWALBytes set, a
// durable platform checkpoints itself once the interval has passed on the
// wall clock since the store's last checkpoint, or once the WAL has grown
// past the byte bound, backing off while degraded (the recovery path owns
// checkpointing then) or while the ingest queues are saturated (a
// checkpoint's read barriers would stall a backlogged pipeline).
//
// Every time here is wall time: Config.Clock is the data clock, which
// Bootstrap pins to one instant.

import (
	"cmp"
	"errors"
	"sync"
	"time"

	"repro/internal/rdbms"
	"repro/internal/repl"
)

// ErrDegraded is returned by write entry points (ingest, replay, reindex,
// checkpoint) while the platform is in degraded read-only mode. The API
// layer maps it to 503 Service Unavailable.
var ErrDegraded = errors.New("core: storage degraded, writes suspended")

// Storage health states surfaced by StorageHealth and GET /api/health.
const (
	// StorageOK: writes open, store healthy.
	StorageOK = "ok"
	// StorageDegraded: a storage fault latched; writes return ErrDegraded
	// and the supervisor is waiting out a retry backoff.
	StorageDegraded = "degraded"
	// StorageRecovering: the supervisor is attempting a recovery
	// checkpoint right now; writes are still suspended.
	StorageRecovering = "recovering"
)

// supervisor owns the self-healing/scheduling goroutine's channels.
type supervisor struct {
	stop chan struct{}
	kick chan struct{}
	done chan struct{}
	once sync.Once
	// started is the interval trigger's baseline until the store has
	// checkpointed once.
	started time.Time
}

// StorageSchedulerStats is the observable checkpoint-scheduler snapshot.
type StorageSchedulerStats struct {
	// Enabled reports whether any trigger (interval or byte bound) is
	// configured; Interval and WALByteLimit echo the configuration.
	Enabled      bool   `json:"enabled"`
	Interval     string `json:"interval"`
	WALByteLimit int64  `json:"wal_byte_limit"`
	// Runs counts scheduled checkpoints, split by trigger.
	Runs         uint64 `json:"runs"`
	IntervalRuns uint64 `json:"interval_runs"`
	ByteRuns     uint64 `json:"byte_runs"`
	// Skipped counts due checkpoints deferred because the ingest queues
	// were saturated; Failures counts scheduled checkpoints that errored
	// (each also degrades the platform — see LastError).
	Skipped  uint64 `json:"skipped"`
	Failures uint64 `json:"failures"`
	// LastError is the most recent scheduler failure ("" if none). The
	// last successful checkpoint is the store's own
	// rdbms.StorageStats.LastCheckpoint.
	LastError string `json:"last_error"`
}

// StorageHealth is the observable storage state machine: ok / degraded /
// recovering, the fault and recovery history, and the checkpoint
// scheduler's counters. Served under "storage_health" by GET /api/stats
// and GET /api/health.
type StorageHealth struct {
	State string `json:"state"`
	// Since is when the current state was entered (wall clock).
	Since time.Time `json:"since"`
	// LastFault is the most recent storage fault ("" if none ever).
	LastFault string `json:"last_fault"`
	// Faults counts degradation incidents, RecoveryAttempts the
	// supervisor's checkpoint retries, Recoveries the returns to ok.
	Faults           uint64 `json:"faults"`
	RecoveryAttempts uint64 `json:"recovery_attempts"`
	Recoveries       uint64 `json:"recoveries"`
	// Scheduler is the built-in checkpoint scheduler's snapshot.
	Scheduler StorageSchedulerStats `json:"scheduler"`
	// Replication is the follower's link snapshot — cursor position,
	// lag behind the primary, reconnect history. Omitted on primaries.
	Replication *repl.Status `json:"replication,omitempty"`
}

// StorageHealth snapshots the storage state machine.
func (p *Platform) StorageHealth() StorageHealth {
	// ReplicationStatus takes the replication client's own lock; grab it
	// outside healthMu to keep the lock graph flat.
	replStatus := p.ReplicationStatus()
	p.healthMu.Lock()
	h := p.health
	p.healthMu.Unlock()
	h.Replication = replStatus
	return h
}

// setState moves the state machine; healthMu held. The write gate flips
// with the state, so StorageHealth never reports a state the write path
// does not enforce.
func (p *Platform) setState(state string) {
	p.health.State = state
	p.health.Since = time.Now()
	p.degraded.Store(state != StorageOK)
}

// noteStorageFault inspects an error from a store write path and latches
// degraded mode when it is the broken-WAL sentinel. Ordinary ingest
// failures (unknown outlet, unparseable document, orphan reaction) pass
// through untouched — they are event problems, not storage problems.
func (p *Platform) noteStorageFault(err error) {
	if err == nil || !errors.Is(err, rdbms.ErrWALBroken) {
		return
	}
	p.enterDegraded(err)
}

// enterDegraded flips the platform into degraded read-only mode: the
// write gate closes, the ingestion pipeline pauses (queued events park on
// their shards instead of retrying against the broken store), and the
// supervisor is kicked to start the recovery loop. A failed recovery
// attempt drops back from recovering to degraded; repeated faults while
// already degraded only refresh LastFault.
func (p *Platform) enterDegraded(cause error) {
	if p.dataDir == "" {
		return // in-memory store: no WAL, nothing to heal
	}
	p.healthMu.Lock()
	first := p.health.State == StorageOK
	if first {
		p.health.Faults++
	}
	if p.health.State != StorageDegraded {
		p.setState(StorageDegraded)
	}
	p.health.LastFault = cause.Error()
	p.healthMu.Unlock()
	if first {
		p.Pipeline.Pause()
		p.kickRecovery()
	}
}

// kickRecovery nudges the supervisor to act now instead of waiting out
// its current backoff or scheduler tick. Non-blocking; safe on in-memory
// platforms (no supervisor).
func (p *Platform) kickRecovery() {
	if p.sup == nil {
		return
	}
	select {
	case p.sup.kick <- struct{}{}:
	default:
	}
}

// runCheckpoint is the one checkpoint executor behind the manual
// Platform.Checkpoint, the scheduler and the recovery loop. On a degraded
// platform the attempt is a recovery: the state shows "recovering" while
// it runs. Any failure on a durable store degrades the platform; any
// success resets the byte trigger's baseline and, if degraded, reopens
// writes and resumes the pipeline.
func (p *Platform) runCheckpoint() (rdbms.CheckpointStats, error) {
	p.healthMu.Lock()
	if p.health.State != StorageOK {
		p.setState(StorageRecovering)
		p.health.RecoveryAttempts++
	}
	p.healthMu.Unlock()
	st, err := p.DB.Checkpoint()
	if err != nil {
		if !errors.Is(err, rdbms.ErrNoDir) {
			p.enterDegraded(err)
		}
		return st, err
	}
	walBytes := p.DB.StorageStats().WALBytes
	p.healthMu.Lock()
	p.walBase = walBytes
	healed := p.health.State != StorageOK
	if healed {
		p.setState(StorageOK)
		p.health.Recoveries++
	}
	p.healthMu.Unlock()
	if healed {
		p.Pipeline.Resume()
	}
	return st, nil
}

// Supervisor timing: the first recovery retry after
// defaultRecoveryBackoff, doubling to defaultRecoveryMaxBackoff (tests
// shorten both through Config); the byte-bound trigger polls WAL growth
// at schedBytePoll when no (shorter) interval is configured.
const (
	defaultRecoveryBackoff    = 100 * time.Millisecond
	defaultRecoveryMaxBackoff = 5 * time.Second
	schedBytePoll             = 50 * time.Millisecond
)

// startStorageSupervisor configures and launches the self-healing /
// checkpoint-scheduling goroutine. Durable platforms only; p.Pipeline is
// already built.
func (p *Platform) startStorageSupervisor(cfg Config) {
	p.recoveryBackoff = cmp.Or(cfg.recoveryBackoff, defaultRecoveryBackoff)
	p.recoveryMaxBackoff = max(cmp.Or(cfg.recoveryMaxBackoff, defaultRecoveryMaxBackoff), p.recoveryBackoff)
	p.schedInterval = cfg.CheckpointInterval
	p.schedWALBytes = cfg.CheckpointWALBytes
	p.health.Scheduler.Enabled = p.schedInterval > 0 || p.schedWALBytes > 0
	p.health.Scheduler.Interval = p.schedInterval.String()
	p.health.Scheduler.WALByteLimit = p.schedWALBytes
	// Sustained-load watermark: a due checkpoint defers while more than
	// half the pipeline's total queue capacity is waiting.
	p.schedLoadLimit = p.Pipeline.Capacity() / 2
	p.sup = &supervisor{
		stop:    make(chan struct{}),
		kick:    make(chan struct{}, 1),
		done:    make(chan struct{}),
		started: time.Now(),
	}
	go p.storageLoop()
}

// stopStorageSupervisor shuts the supervisor down and waits for it.
// Idempotent; a no-op on in-memory platforms.
func (p *Platform) stopStorageSupervisor() {
	if p.sup == nil {
		return
	}
	p.sup.once.Do(func() { close(p.sup.stop) })
	<-p.sup.done
}

// storageLoop is the supervisor goroutine: while healthy it runs the
// checkpoint scheduler; while degraded it retries recovery checkpoints
// with capped exponential backoff.
func (p *Platform) storageLoop() {
	defer close(p.sup.done)
	backoff := p.recoveryBackoff
	for {
		var wake <-chan time.Time
		if p.degraded.Load() {
			wake = time.After(backoff)
		} else if tick := p.schedTick(); tick > 0 {
			wake = time.After(tick)
		}
		select {
		case <-p.sup.stop:
			return
		case <-p.sup.kick:
		case <-wake:
		}
		if !p.degraded.Load() {
			p.maybeScheduledCheckpoint()
		} else if _, err := p.runCheckpoint(); err != nil {
			backoff = min(backoff*2, p.recoveryMaxBackoff)
			continue
		}
		backoff = p.recoveryBackoff
	}
}

// schedTick is the scheduler's poll cadence: the configured interval,
// tightened to schedBytePoll when a byte bound needs watching. 0 disables
// the timer (the supervisor then only wakes on kicks).
func (p *Platform) schedTick() time.Duration {
	tick := p.schedInterval
	if p.schedWALBytes > 0 && (tick <= 0 || tick > schedBytePoll) {
		tick = schedBytePoll
	}
	return tick
}

// maybeScheduledCheckpoint evaluates the scheduler triggers and runs a
// checkpoint when one is due — unless the ingest queues are saturated, in
// which case the run is deferred (and counted) rather than stacking a
// store-wide read barrier onto a backlogged pipeline. The interval runs
// from the store's last checkpoint, whoever ran it, so a manual
// checkpoint a second before a scheduled one postpones it.
func (p *Platform) maybeScheduledCheckpoint() {
	if p.schedInterval <= 0 && p.schedWALBytes <= 0 {
		return
	}
	st := p.DB.StorageStats()
	last := st.LastCheckpoint
	if last.IsZero() {
		last = p.sup.started
	}
	p.healthMu.Lock()
	grown := st.WALBytes - p.walBase
	p.healthMu.Unlock()
	sched := &p.health.Scheduler
	var trigger *uint64
	switch {
	case p.schedInterval > 0 && time.Since(last) >= p.schedInterval:
		trigger = &sched.IntervalRuns
	case p.schedWALBytes > 0 && grown >= p.schedWALBytes:
		trigger = &sched.ByteRuns
	default:
		return
	}
	if p.Pipeline.Depth() > p.schedLoadLimit {
		p.healthMu.Lock()
		sched.Skipped++
		p.healthMu.Unlock()
		return
	}
	_, err := p.runCheckpoint()
	p.healthMu.Lock()
	if err != nil {
		sched.Failures++
		sched.LastError = err.Error()
	} else {
		sched.Runs++
		*trigger++
	}
	p.healthMu.Unlock()
}
