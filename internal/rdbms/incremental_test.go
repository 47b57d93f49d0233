package rdbms

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/rdbms/vfs"
)

// touchPartitions mutates one stored row in each of n distinct partitions
// of tbl, dirtying exactly those stripes. ids maps partition index to a
// resident primary key (built by seedPartitions).
func touchPartitions(t *testing.T, tbl *Table, ids map[int]int64, n int) {
	t.Helper()
	touched := 0
	for pi := 0; pi < tbl.Partitions() && touched < n; pi++ {
		id, ok := ids[pi]
		if !ok {
			continue
		}
		err := tbl.Mutate(Int(id), func(r Row) (Row, error) {
			r[3] = Float(r[3].Float() + 1)
			return r, nil
		})
		if errors.Is(err, ErrNotFound) {
			continue // the representative row was deleted by the test
		}
		if err != nil {
			t.Fatal(err)
		}
		touched++
	}
	if touched < n {
		t.Fatalf("only %d of %d partitions have resident rows", touched, n)
	}
}

// seedPartitions inserts rows until every partition holds at least one,
// returning a representative pk per partition.
func seedPartitions(t *testing.T, tbl *Table, rows int64) map[int]int64 {
	t.Helper()
	ids := map[int]int64{}
	for i := int64(0); i < rows; i++ {
		if _, err := tbl.Insert(articleRow(i, fmt.Sprintf("o%d", i%7), "t", float64(i))); err != nil {
			t.Fatal(err)
		}
		pi := tbl.partFor(Int(i))
		if _, ok := ids[pi]; !ok {
			ids[pi] = i
		}
	}
	return ids
}

// TestKillAndRecoverDeltaChain is the incremental-checkpoint acceptance
// pin: a base plus a ≥3-delta chain, each delta capturing different dirty
// partitions, plus WAL-tail writes after the last checkpoint — a crash
// reopen must restore every table row for row Identical from
// manifest → base → deltas → WAL replay.
func TestKillAndRecoverDeltaChain(t *testing.T) {
	dir := t.TempDir()
	db, tbl := openTestDB(t, dir)
	social, err := db.CreateTable("social", mustSchema(t, "article_id"))
	if err != nil {
		t.Fatal(err)
	}
	ids := seedPartitions(t, tbl, 128)
	for i := int64(0); i < 40; i++ {
		social.Insert(Row{String(fmt.Sprintf("a-%d", i)), Int(i)})
	}
	// Base generation.
	st, err := db.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Full || st.Generation == 0 {
		t.Fatalf("first checkpoint not a full base: %+v", st)
	}

	// Three deltas, each dirtying a different slice of the store: a few
	// article partitions, then social aggregates, then deletes + inserts.
	touchPartitions(t, tbl, ids, 2)
	if st, err = db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st.Full || st.DeltaChainLen != 1 {
		t.Fatalf("delta 1: %+v", st)
	}
	if st.PartitionsWritten != 2 {
		t.Fatalf("delta 1 wrote %d partitions, want 2", st.PartitionsWritten)
	}
	for i := int64(0); i < 40; i += 2 {
		if err := social.Mutate(String(fmt.Sprintf("a-%d", i)), func(r Row) (Row, error) {
			r[1] = Int(r[1].Int() + 100)
			return r, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if st, err = db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st.Full || st.DeltaChainLen != 2 {
		t.Fatalf("delta 2: %+v", st)
	}
	for i := int64(1); i < 30; i += 3 {
		tbl.Delete(Int(i))
	}
	tbl.Insert(articleRow(9001, "new", "delta-3", 3))
	if st, err = db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st.Full || st.DeltaChainLen != 3 {
		t.Fatalf("delta 3: %+v", st)
	}

	// WAL-tail traffic after the last checkpoint.
	tbl.Insert(articleRow(9002, "new", "wal-tail", 4))
	touchPartitions(t, tbl, ids, 1)
	want := dumpDB(t, db)

	db.Abandon()
	re, err := OpenWithOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := dumpDB(t, re); !dumpsIdentical(want, got) {
		t.Fatal("delta-chain recovery diverged")
	}
	ss := re.StorageStats()
	if ss.DeltaChainLength != 3 {
		t.Fatalf("recovered chain length: %d", ss.DeltaChainLength)
	}
	// Recovered indexes work and the recovered store accepts writes.
	reTbl, _ := re.Table("articles")
	if rows, err := lookupEq(reTbl, "outlet", String("new")); err != nil || len(rows) != 2 {
		t.Fatalf("recovered index: %d %v", len(rows), err)
	}
	if _, err := reTbl.Insert(articleRow(9100, "post", "after", 0)); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveredChainStaysIncremental: after a restart, a checkpoint must
// capture only what the WAL replay and new traffic dirtied — not re-write
// the whole recovered corpus.
func TestRecoveredChainStaysIncremental(t *testing.T) {
	dir := t.TempDir()
	db, tbl := openTestDB(t, dir)
	ids := seedPartitions(t, tbl, 128)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenWithOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	reTbl, _ := re.Table("articles")
	touchPartitions(t, reTbl, ids, 1)
	st, err := re.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if st.Full || st.PartitionsWritten != 1 {
		t.Fatalf("post-restart checkpoint not incremental: %+v", st)
	}
}

// TestDeltaCompaction: once the chain exceeds DeltaLimit the checkpoint
// folds it into a fresh full base and retires the superseded generations.
func TestDeltaCompaction(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenWithOptions(dir, Options{DeltaLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("articles", articleSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	ids := seedPartitions(t, tbl, 64)
	if _, err := db.Checkpoint(); err != nil { // base
		t.Fatal(err)
	}
	for k := 0; k < 2; k++ { // two deltas: chain at the limit
		touchPartitions(t, tbl, ids, 1)
		st, err := db.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if st.Full {
			t.Fatalf("delta %d unexpectedly full: %+v", k+1, st)
		}
	}
	touchPartitions(t, tbl, ids, 1)
	st, err := db.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Full || st.DeltaChainLen != 0 {
		t.Fatalf("compaction expected: %+v", st)
	}
	ss := db.StorageStats()
	if ss.Compactions != 1 || ss.DeltaChainLength != 0 || !ss.LastCheckpointFull {
		t.Fatalf("compaction stats: %+v", ss)
	}
	// Exactly one generation directory survives.
	matches, err := filepath.Glob(filepath.Join(dir, "snap-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 {
		t.Fatalf("generation dirs after compaction: %v", matches)
	}
	// And the compacted store recovers.
	want := dumpDB(t, db)
	db.Abandon()
	re, err := OpenWithOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := dumpDB(t, re); !dumpsIdentical(want, got) {
		t.Fatal("post-compaction recovery diverged")
	}
}

// TestOpenMissingDeltaFails: a manifest naming a generation that is gone
// must fail Open loudly — recovering without it would silently drop
// committed partitions.
func TestOpenMissingDeltaFails(t *testing.T) {
	dir := t.TempDir()
	db, tbl := openTestDB(t, dir)
	ids := seedPartitions(t, tbl, 64)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	touchPartitions(t, tbl, ids, 1)
	st, err := db.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(dir, genDirName(st.Generation))); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWithOptions(dir, Options{}); !errors.Is(err, ErrManifest) {
		t.Fatalf("open with missing delta: %v", err)
	}
	// A corrupt generation payload must fail the same way.
	dir2 := t.TempDir()
	db2, tbl2 := openTestDB(t, dir2)
	seedPartitions(t, tbl2, 64)
	st2, err := db2.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir2, genDirName(st2.Generation), genDataFile), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWithOptions(dir2, Options{}); !errors.Is(err, ErrManifest) {
		t.Fatalf("open with corrupt generation: %v", err)
	}
}

// TestCheckpointPruneFailureNonFatal is the prune-contract regression: a
// WAL segment that refuses to delete must not fail an otherwise-successful
// checkpoint — it is surfaced in the stats instead.
func TestCheckpointPruneFailureNonFatal(t *testing.T) {
	dir := t.TempDir()
	db, tbl := openTestDB(t, dir)
	seedPartitions(t, tbl, 32)

	oldRemove := removeFile
	removeFile = func(fsys vfs.FS, path string) error {
		if filepath.Ext(path) == ".log" {
			return fmt.Errorf("injected prune failure for %s", path)
		}
		return oldRemove(fsys, path)
	}
	defer func() { removeFile = oldRemove }()

	st, err := db.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint failed on prune error: %v", err)
	}
	if st.Generation == 0 || st.SegmentsPruned != 0 || st.PruneFailures == 0 {
		t.Fatalf("prune failure not surfaced: %+v", st)
	}
	if ss := db.StorageStats(); ss.PruneFailures != st.PruneFailures {
		t.Fatalf("stats prune failures: %+v", ss)
	}

	// With the failure injection lifted the next checkpoint reclaims the
	// leftover segments, and the leftovers never corrupted recovery.
	removeFile = oldRemove
	tbl.Insert(articleRow(9000, "o", "after", 0))
	st, err = db.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if st.SegmentsPruned == 0 {
		t.Fatalf("leftover segments not reclaimed: %+v", st)
	}
	want := dumpDB(t, db)
	db.Abandon()
	re, err := OpenWithOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := dumpDB(t, re); !dumpsIdentical(want, got) {
		t.Fatal("recovery diverged after leftover segments")
	}
}

// TestLeftoverSegmentsNotReplayedOverChain: WAL segments a best-effort
// prune failed to delete are superseded by the installed chain (the
// manifest records a WAL floor); replaying one at recovery would
// resurrect rows the chain knows are deleted and revert updated ones.
func TestLeftoverSegmentsNotReplayedOverChain(t *testing.T) {
	dir := t.TempDir()
	db, tbl := openTestDB(t, dir)
	seedPartitions(t, tbl, 32)

	// Every segment prune fails: each checkpoint leaves its superseded
	// segments on disk.
	oldRemove := removeFile
	removeFile = func(fsys vfs.FS, path string) error {
		if filepath.Ext(path) == ".log" {
			return fmt.Errorf("injected prune failure for %s", path)
		}
		return oldRemove(fsys, path)
	}
	defer func() { removeFile = oldRemove }()

	if _, err := db.Checkpoint(); err != nil { // base: rows 5 and 6 present
		t.Fatal(err)
	}
	if err := tbl.Delete(Int(5)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Mutate(Int(6), func(r Row) (Row, error) {
		r[3] = Float(999)
		return r, nil
	}); err != nil {
		t.Fatal(err)
	}
	st, err := db.Checkpoint() // delta captures the delete + update
	if err != nil {
		t.Fatal(err)
	}
	if st.PruneFailures == 0 {
		t.Fatalf("fixture: prune unexpectedly succeeded: %+v", st)
	}
	want := dumpDB(t, db)

	// Crash with the stale pre-chain segments still on disk. The first
	// leftover holds the original insert of row 5 and the pre-update row
	// 6: loose replay over the chain would resurrect/revert them.
	db.Abandon()
	removeFile = oldRemove
	re, err := OpenWithOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := dumpDB(t, re); !dumpsIdentical(want, got) {
		t.Fatal("recovery with leftover segments diverged")
	}
	reTbl, _ := re.Table("articles")
	if _, err := reTbl.Get(Int(5)); !errors.Is(err, ErrNotFound) {
		t.Error("durably deleted row resurrected by a stale leftover segment")
	}
	row, err := reTbl.Get(Int(6))
	if err != nil || row[3].Float() != 999 {
		t.Errorf("updated row reverted: %v %v", row, err)
	}
	// Open retried the reclaim: the dead segments are gone.
	segs, err := walSegments(vfs.NewOS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	floor := re.currentSeq()
	for _, seg := range segs {
		if segSeq(seg) < floor {
			t.Errorf("dead segment %s not reaped at open", seg)
		}
	}
}

// TestCheckpointSurvivesManifestFailure: a checkpoint whose manifest
// install fails (after the generation directory was renamed into place)
// must not wedge later checkpoints — the orphan generation's number is
// consumed, the next checkpoint allocates a fresh one, and the store
// stays consistent and recoverable throughout.
func TestCheckpointSurvivesManifestFailure(t *testing.T) {
	dir := t.TempDir()
	db, tbl := openTestDB(t, dir)
	seedPartitions(t, tbl, 32)

	// Block the manifest install: writeManifest's tmp path is occupied by
	// a directory, so os.Create fails after the generation rename.
	blocker := filepath.Join(dir, manifestFile+".tmp")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Checkpoint(); err == nil {
		t.Fatal("checkpoint succeeded with the manifest install blocked")
	}
	if err := os.RemoveAll(blocker); err != nil {
		t.Fatal(err)
	}

	// The next checkpoint must succeed (fresh generation number, not a
	// rename onto the orphan directory) and capture everything — the
	// failed one never marked any stripe clean.
	tbl.Insert(articleRow(9000, "o", "after-failed-manifest", 0))
	st, err := db.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint wedged after failed manifest install: %v", err)
	}
	if st.Generation == 0 || !st.Full {
		t.Fatalf("recovery checkpoint stats: %+v", st)
	}
	want := dumpDB(t, db)
	db.Abandon()
	re, err := OpenWithOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := dumpDB(t, re); !dumpsIdentical(want, got) {
		t.Fatal("recovery diverged after failed manifest install")
	}
}

// TestLegacySnapshotRefused: a pre-incremental directory (single
// snapshot.db, no manifest) must not open as an empty store. Open fails
// with ErrManifest naming the file — again on a second try, so the failed
// open released the directory lock — and leaves the file as it was.
func TestLegacySnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, snapshotFile)
	content := []byte("SLSNAP1\n\x01any bytes at all \xff\x00")
	if err := os.WriteFile(legacy, content, 0o644); err != nil {
		t.Fatal(err)
	}
	for try := 1; try <= 2; try++ {
		db, err := OpenWithOptions(dir, Options{})
		if err == nil {
			db.Close()
			t.Fatalf("try %d: a legacy directory opened", try)
		}
		if !errors.Is(err, ErrManifest) || !strings.Contains(err.Error(), legacy) {
			t.Fatalf("try %d: %v, want ErrManifest naming %s", try, err, legacy)
		}
	}
	if got, err := os.ReadFile(legacy); err != nil || !bytes.Equal(got, content) {
		t.Errorf("snapshot.db changed: %q, %v", got, err)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestFile)); !os.IsNotExist(err) {
		t.Errorf("a refused open wrote a manifest: %v", err)
	}
}

// TestFsyncAlwaysGroupCommit: concurrent writers under the always policy
// must all succeed, be durable across a crash, and share fsyncs (group
// commit: fewer fsyncs than records).
func TestFsyncAlwaysGroupCommit(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenWithOptions(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("articles", articleSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const perWorker = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := int64(w*perWorker + i)
				if _, err := tbl.Insert(articleRow(id, fmt.Sprintf("o%d", w), "g", 0)); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	fsyncs, recs := db.wal.FsyncStats()
	if fsyncs == 0 || recs == 0 {
		t.Fatalf("no group fsyncs recorded: %d/%d", fsyncs, recs)
	}
	// DDL + all inserts rode the flusher; under concurrency at least some
	// fsyncs must have batched more than one record, and never can there
	// be more fsyncs than records.
	if fsyncs > recs {
		t.Fatalf("more fsyncs than records: %d > %d", fsyncs, recs)
	}
	ss := db.StorageStats()
	if ss.WALFsyncPolicy != "always" || ss.WALFsyncs != fsyncs {
		t.Fatalf("fsync stats not surfaced: %+v", ss)
	}
	want := dumpDB(t, db)
	db.Abandon()
	re, err := OpenWithOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := dumpDB(t, re); !dumpsIdentical(want, got) {
		t.Fatal("group-commit crash recovery diverged")
	}
}

// TestCloseCommitsParkedGroupWriters: writers racing DB.Close under
// FsyncAlways must see honest outcomes — an acknowledged insert is
// durably recoverable (Close's own fsync commits appenders still parked
// on the watermark), and post-close inserts fail with ErrWALBroken
// instead of being silently acknowledged without durability.
func TestCloseCommitsParkedGroupWriters(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenWithOptions(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("articles", articleSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	var ackMu sync.Mutex
	acked := map[int64]bool{}
	var wg sync.WaitGroup
	const workers = 4
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := int64(w*500 + i)
				_, err := tbl.Insert(articleRow(id, "o", "race-close", 0))
				if err == nil {
					ackMu.Lock()
					acked[id] = true
					ackMu.Unlock()
					continue
				}
				if !errors.Is(err, ErrWALBroken) {
					t.Errorf("insert %d: %v", id, err)
				}
				return // the WAL closed under us: stop writing
			}
		}(w)
	}
	time.Sleep(5 * time.Millisecond) // let writers overlap the close
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	wg.Wait()

	re, err := OpenWithOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	reTbl, err := re.Table("articles")
	if err != nil {
		t.Fatal(err)
	}
	for id := range acked {
		if _, err := reTbl.Get(Int(id)); err != nil {
			t.Errorf("acknowledged insert %d lost across close: %v", id, err)
		}
	}
}

// TestFsyncIntervalFlushes: the interval policy fsyncs in the background
// without appenders waiting, and the counters surface it.
func TestFsyncIntervalFlushes(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenWithOptions(dir, Options{Fsync: FsyncIntervalPolicy, FsyncInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("articles", articleSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 20; i++ {
		if _, err := tbl.Insert(articleRow(i, "o", "t", 0)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if fsyncs, _ := db.wal.FsyncStats(); fsyncs > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("interval flusher never fsynced")
		}
		time.Sleep(time.Millisecond)
	}
	if ss := db.StorageStats(); ss.WALFsyncPolicy != "interval" {
		t.Fatalf("policy not surfaced: %+v", ss)
	}
}

// TestFsyncAlwaysCheckpointUnderLoad races group-committed writers with
// online checkpoints (rotation swaps the segment under the flusher) and
// verifies convergence after a crash.
func TestFsyncAlwaysCheckpointUnderLoad(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenWithOptions(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("articles", articleSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	const perWorker = 60
	var wg sync.WaitGroup
	stop := make(chan struct{})
	ckptDone := make(chan error, 1)
	go func() {
		var err error
		for {
			select {
			case <-stop:
				ckptDone <- err
				return
			default:
				if _, cerr := db.Checkpoint(); cerr != nil && err == nil {
					err = cerr
				}
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := int64(w*perWorker + i)
				if _, err := tbl.Insert(articleRow(id, "o", "c", 0)); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if err := tbl.Mutate(Int(id), func(r Row) (Row, error) {
					r[3] = Float(r[3].Float() + 1)
					return r, nil
				}); err != nil {
					t.Errorf("mutate: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if err := <-ckptDone; err != nil {
		t.Fatalf("checkpoint under group-commit load: %v", err)
	}
	want := dumpDB(t, db)
	db.Abandon()
	re, err := OpenWithOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := dumpDB(t, re); !dumpsIdentical(want, got) {
		t.Fatal("always-policy online-checkpoint recovery diverged")
	}
}

// TestParseFsyncPolicy pins the operator-facing policy grammar.
func TestParseFsyncPolicy(t *testing.T) {
	cases := []struct {
		in       string
		policy   FsyncPolicy
		interval time.Duration
		wantErr  bool
	}{
		{"", FsyncCheckpoint, 0, false},
		{"checkpoint", FsyncCheckpoint, 0, false},
		{"always", FsyncAlways, 0, false},
		{"interval", FsyncIntervalPolicy, DefaultFsyncInterval, false},
		{"interval:25ms", FsyncIntervalPolicy, 25 * time.Millisecond, false},
		{"interval:0s", 0, 0, true},
		{"interval:nope", 0, 0, true},
		{"fsync-me-harder", 0, 0, true},
	}
	for _, c := range cases {
		p, d, err := ParseFsyncPolicy(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("%q: expected error", c.in)
			}
			continue
		}
		if err != nil || p != c.policy || d != c.interval {
			t.Errorf("%q: got %v/%v/%v", c.in, p, d, err)
		}
	}
	if FsyncAlways.String() != "always" || FsyncIntervalPolicy.String() != "interval" || FsyncCheckpoint.String() != "checkpoint" {
		t.Error("FsyncPolicy.String mismatch")
	}
}
