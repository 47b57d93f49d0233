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
// maps it to 503). A supervisor goroutine then retries Checkpoint with
// capped exponential backoff plus jitter — a successful checkpoint
// rotates the WAL onto a fresh segment, which clears the broken latch —
// and on success resumes the pipeline and reopens writes automatically.
//
// The same goroutine doubles as the self-driving checkpoint scheduler:
// with Config.CheckpointInterval and/or Config.CheckpointWALBytes set, a
// durable platform checkpoints itself every interval or once the WAL has
// grown past the byte bound, backing off while degraded (the recovery
// path owns checkpointing then) or while the ingest queues are saturated
// (a checkpoint's read barriers would stall a backlogged pipeline).

import (
	"errors"
	"math/rand"
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

// storageHealth is the supervisor's mutable state, guarded by healthMu.
// The degraded atomic.Bool on Platform is the write-path fast gate; this
// struct is the slow-path bookkeeping behind it.
type storageHealth struct {
	state     string
	since     time.Time
	lastFault string
	// faults counts degradation incidents (transitions into degraded, not
	// individual failed operations); attempts counts supervisor recovery
	// checkpoints; recoveries counts returns to ok.
	faults     uint64
	attempts   uint64
	recoveries uint64
	sched      schedulerState
}

// schedulerState is the checkpoint scheduler's bookkeeping (healthMu).
type schedulerState struct {
	runs         uint64
	intervalRuns uint64
	byteRuns     uint64
	skipped      uint64
	failures     uint64
	lastRun      time.Time
	lastErr      string
	// baseBytes is the store's cumulative WAL byte count at the last
	// successful checkpoint; growth beyond CheckpointWALBytes triggers.
	baseBytes int64
}

// supervisor owns the self-healing/scheduling goroutine's channels.
type supervisor struct {
	stop chan struct{}
	kick chan struct{}
	done chan struct{}
	once sync.Once
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
	// LastRun is the last successful checkpoint (scheduled, manual or
	// recovery); LastError the most recent scheduler failure ("" if none).
	LastRun   time.Time `json:"last_run"`
	LastError string    `json:"last_error"`
}

// StorageHealth is the observable storage state machine: ok / degraded /
// recovering, the fault and recovery history, and the checkpoint
// scheduler's counters. Served under "storage_health" by GET /api/stats
// and GET /api/health.
type StorageHealth struct {
	State string `json:"state"`
	// Since is when the current state was entered.
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
	defer p.healthMu.Unlock()
	h := &p.health
	return StorageHealth{
		Replication:      replStatus,
		State:            h.state,
		Since:            h.since,
		LastFault:        h.lastFault,
		Faults:           h.faults,
		RecoveryAttempts: h.attempts,
		Recoveries:       h.recoveries,
		Scheduler: StorageSchedulerStats{
			Enabled:      p.schedInterval > 0 || p.schedWALBytes > 0,
			Interval:     p.schedInterval.String(),
			WALByteLimit: p.schedWALBytes,
			Runs:         h.sched.runs,
			IntervalRuns: h.sched.intervalRuns,
			ByteRuns:     h.sched.byteRuns,
			Skipped:      h.sched.skipped,
			Failures:     h.sched.failures,
			LastRun:      h.sched.lastRun,
			LastError:    h.sched.lastErr,
		},
	}
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
// supervisor is kicked to start the recovery loop. Idempotent — repeated
// faults while already degraded only refresh lastFault.
func (p *Platform) enterDegraded(cause error) {
	if p.dataDir == "" {
		return // in-memory store: no WAL, nothing to heal
	}
	p.healthMu.Lock()
	first := p.health.state == StorageOK
	if first {
		p.health.state = StorageDegraded
		p.health.since = p.Clock()
		p.health.faults++
		// The gate flips with the state, so StorageHealth never reports a
		// state the write path does not enforce.
		p.degraded.Store(true)
	}
	p.health.lastFault = cause.Error()
	p.healthMu.Unlock()
	if first {
		p.Pipeline.Pause()
		p.kickRecovery()
	}
}

// markRecovered reopens writes after a successful checkpoint: the write
// gate lifts and the pipeline resumes draining whatever accumulated while
// degraded. A no-op when the platform was healthy all along.
func (p *Platform) markRecovered() {
	p.healthMu.Lock()
	healed := p.health.state != StorageOK
	if healed {
		p.health.state = StorageOK
		p.health.since = p.Clock()
		p.health.recoveries++
		p.degraded.Store(false)
	}
	p.healthMu.Unlock()
	if healed {
		p.Pipeline.Resume()
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

// runCheckpoint is the shared checkpoint executor behind the manual
// Platform.Checkpoint, the scheduler and the recovery loop: any failure
// on a durable store degrades the platform, any success resets the
// scheduler's baselines and (if degraded) heals it.
func (p *Platform) runCheckpoint() (rdbms.CheckpointStats, error) {
	st, err := p.DB.Checkpoint()
	if err != nil {
		if !errors.Is(err, rdbms.ErrNoDir) {
			p.enterDegraded(err)
		}
		return st, err
	}
	p.noteCheckpointSuccess()
	p.markRecovered()
	return st, nil
}

// noteCheckpointSuccess resets the scheduler's trigger baselines after
// any successful checkpoint, whoever ran it: a manual checkpoint a second
// before a scheduled one makes the scheduled one pointless.
func (p *Platform) noteCheckpointSuccess() {
	walBytes := p.DB.StorageStats().WALBytes
	p.healthMu.Lock()
	p.health.sched.lastRun = p.Clock()
	p.health.sched.baseBytes = walBytes
	p.healthMu.Unlock()
}

// Supervisor defaults: first retry after RecoveryBackoff, doubling to
// RecoveryMaxBackoff; the byte-bound trigger polls WAL growth at
// schedBytePoll when no (shorter) interval is configured.
const (
	defaultRecoveryBackoff    = 100 * time.Millisecond
	defaultRecoveryMaxBackoff = 5 * time.Second
	schedBytePoll             = 50 * time.Millisecond
)

// startStorageSupervisor configures and launches the self-healing /
// checkpoint-scheduling goroutine. Durable platforms only.
func (p *Platform) startStorageSupervisor(cfg Config) {
	p.recoveryBackoff = cfg.RecoveryBackoff
	if p.recoveryBackoff <= 0 {
		p.recoveryBackoff = defaultRecoveryBackoff
	}
	p.recoveryMaxBackoff = cfg.RecoveryMaxBackoff
	if p.recoveryMaxBackoff < p.recoveryBackoff {
		p.recoveryMaxBackoff = max(defaultRecoveryMaxBackoff, p.recoveryBackoff)
	}
	p.schedInterval = cfg.CheckpointInterval
	p.schedWALBytes = cfg.CheckpointWALBytes
	shards := cfg.StreamShards
	if shards <= 0 {
		shards = 4
	}
	qcap := cfg.StreamQueueCapacity
	if qcap <= 0 {
		qcap = 1024
	}
	// Sustained-load watermark: a due checkpoint defers while more than
	// half the pipeline's total queue capacity is waiting.
	p.schedLoadLimit = shards * qcap / 2
	p.health.sched.lastRun = p.Clock()
	p.sup = &supervisor{
		stop: make(chan struct{}),
		kick: make(chan struct{}, 1),
		done: make(chan struct{}),
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
// with capped exponential backoff plus jitter (full jitter on the upper
// half, so a fleet recovering from one shared outage does not hammer the
// disk in lockstep).
func (p *Platform) storageLoop() {
	defer close(p.sup.done)
	backoff := p.recoveryBackoff
	for {
		var wake <-chan time.Time
		if p.degraded.Load() {
			wake = time.After(jitter(backoff))
		} else if tick := p.schedTick(); tick > 0 {
			wake = time.After(tick)
		}
		select {
		case <-p.sup.stop:
			return
		case <-p.sup.kick:
		case <-wake:
		}
		if p.degraded.Load() {
			if p.tryRecover() {
				backoff = p.recoveryBackoff
			} else {
				backoff = min(backoff*2, p.recoveryMaxBackoff)
			}
			continue
		}
		backoff = p.recoveryBackoff
		p.maybeScheduledCheckpoint()
	}
}

// jitter spreads a backoff over [d/2, d].
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// tryRecover attempts one recovery checkpoint, reporting success. The
// state shows "recovering" for the duration of the attempt.
func (p *Platform) tryRecover() bool {
	p.healthMu.Lock()
	p.health.state = StorageRecovering
	p.health.since = p.Clock()
	p.health.attempts++
	p.healthMu.Unlock()
	if _, err := p.DB.Checkpoint(); err != nil {
		p.healthMu.Lock()
		p.health.state = StorageDegraded
		p.health.lastFault = err.Error()
		p.healthMu.Unlock()
		return false
	}
	p.noteCheckpointSuccess()
	p.markRecovered()
	return true
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
// store-wide read barrier onto a backlogged pipeline.
func (p *Platform) maybeScheduledCheckpoint() {
	if p.schedInterval <= 0 && p.schedWALBytes <= 0 {
		return
	}
	now := p.Clock()
	walBytes := p.DB.StorageStats().WALBytes
	p.healthMu.Lock()
	trigger := ""
	switch {
	case p.schedInterval > 0 && now.Sub(p.health.sched.lastRun) >= p.schedInterval:
		trigger = "interval"
	case p.schedWALBytes > 0 && walBytes-p.health.sched.baseBytes >= p.schedWALBytes:
		trigger = "bytes"
	}
	p.healthMu.Unlock()
	if trigger == "" {
		return
	}
	if p.Pipeline.Depth() > p.schedLoadLimit {
		p.healthMu.Lock()
		p.health.sched.skipped++
		p.healthMu.Unlock()
		return
	}
	if _, err := p.runCheckpoint(); err != nil {
		p.healthMu.Lock()
		p.health.sched.failures++
		p.health.sched.lastErr = err.Error()
		p.healthMu.Unlock()
		return
	}
	p.healthMu.Lock()
	p.health.sched.runs++
	if trigger == "interval" {
		p.health.sched.intervalRuns++
	} else {
		p.health.sched.byteRuns++
	}
	p.healthMu.Unlock()
}
