package rdbms

import (
	"time"

	"repro/internal/obs"
)

// metrics is the storage layer's telemetry on one registry; StorageStats
// reads its checkpoint count and group-commit record total back. It is
// observer-only: derived from durations and counts the engine already
// computes (or from wall-clock reads annotated as operator telemetry),
// never fed back into replayed state, so recovery stays deterministic.
type metrics struct {
	walAppend, walFsync, walGroupCommit, checkpointDur, lockWait *obs.Histogram
	checkpoints, checkpointBytes, lockContended                  *obs.Counter
}

func newMetrics(r *obs.Registry) *metrics {
	return &metrics{
		walAppend: r.NewDurationHistogram("scilens_wal_append_seconds",
			"WAL append latency, including any group-commit park under fsync=always."),
		walFsync: r.NewDurationHistogram("scilens_wal_fsync_seconds",
			"Duration of WAL segment fsyncs."),
		walGroupCommit: r.NewSizeHistogram("scilens_wal_group_commit_records",
			"Records made durable per WAL fsync (the achieved group-commit batch)."),
		checkpoints: r.NewCounter("scilens_checkpoints_total",
			"Completed checkpoints since process start."),
		checkpointDur: r.NewDurationHistogram("scilens_checkpoint_seconds",
			"Checkpoint wall-clock duration."),
		checkpointBytes: r.NewCounter("scilens_checkpoint_bytes_total",
			"Cumulative snapshot bytes written by checkpoints."),
		lockWait: r.NewDurationHistogram("scilens_partition_lock_wait_seconds",
			"Time mutations spent waiting for a contended partition write lock."),
		lockContended: r.NewCounter("scilens_partition_lock_contended_total",
			"Partition write-lock acquisitions that found the stripe contended."),
	}
}

// lockPart write-locks one partition stripe, recording contention. The
// uncontended path is a single TryLock (one atomic, no clock read); only
// a contended acquisition pays for timing the wait. The caller releases
// p.mu — this is the paired-lock-helper shape lockhygiene exempts.
func (t *Table) lockPart(p *partition) {
	if p.mu.TryLock() {
		return
	}
	t.m.lockContended.Inc()
	start := time.Now() //scilint:ignore determinism lock-wait latency is operator telemetry, not replayed state
	p.mu.Lock()
	t.m.lockWait.ObserveDuration(time.Since(start)) //scilint:ignore determinism lock-wait latency is operator telemetry, not replayed state
}
