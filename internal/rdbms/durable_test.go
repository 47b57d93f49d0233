package rdbms

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/rdbms/vfs"
)

// openTestDB opens a durable DB in dir with the articles schema and its
// indexes declared (idempotent across reopens: recovery replays DDL).
func openTestDB(t *testing.T, dir string) (*DB, *Table) {
	t.Helper()
	db, err := OpenWithOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.Table("articles")
	if errors.Is(err, ErrNotFound) {
		if tbl, err = db.CreateTable("articles", articleSchema(t)); err != nil {
			t.Fatal(err)
		}
		if err := tbl.CreateIndex("outlet", HashIndex); err != nil {
			t.Fatal(err)
		}
		if err := tbl.CreateIndex("score", OrderedIndex); err != nil {
			t.Fatal(err)
		}
	} else if err != nil {
		t.Fatal(err)
	}
	return db, tbl
}

// walBroken reports whether db's WAL refuses appends after a failed one.
func walBroken(db *DB) bool {
	db.wal.mu.Lock()
	defer db.wal.mu.Unlock()
	return db.wal.broken
}

// dumpDB captures the logical content of every table, sorted by pk.
func dumpDB(t *testing.T, db *DB) map[string][]Row {
	t.Helper()
	out := map[string][]Row{}
	for _, name := range db.TableNames() {
		tbl, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = dumpRows(t, tbl)
	}
	return out
}

// lastSegment returns the path of the highest-numbered WAL segment.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := walSegments(vfs.NewOS(), dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("wal segments: %v (%d)", err, len(segs))
	}
	return segs[len(segs)-1]
}

// TestKillAndRecover is the acceptance pin: ingest, checkpoint, ingest
// more, drop the DB without closing (the crash), and Open must rebuild
// tables identical to the pre-crash state from snapshot + WAL replay.
func TestKillAndRecover(t *testing.T) {
	dir := t.TempDir()
	db, tbl := openTestDB(t, dir)
	db2, err := db.CreateTable("social", mustSchema(t, "article_id"))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		tbl.Insert(articleRow(i, fmt.Sprintf("o%d", i%5), "pre-ckpt", float64(i)))
		db2.Insert(Row{String(fmt.Sprintf("a-%d", i)), Int(i)})
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint traffic: inserts, updates, mutates, deletes — all
	// recoverable only via WAL replay on top of the snapshot.
	for i := int64(100); i < 150; i++ {
		tbl.Insert(articleRow(i, "post", "post-ckpt", float64(i)))
	}
	for i := int64(0); i < 100; i += 2 {
		if err := tbl.Mutate(Int(i), func(r Row) (Row, error) {
			r[3] = Float(r[3].Float() + 1000)
			return r, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(1); i < 50; i += 2 {
		tbl.Delete(Int(i))
	}
	// A re-key in the WAL: delete + insert, across partitions.
	if err := tbl.Delete(Int(100)); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Insert(articleRow(5100, "moved", "re-keyed", 1)); err != nil {
		t.Fatal(err)
	}
	want := dumpDB(t, db)

	// Crash: no Close, no final checkpoint. Per-record flushing means the
	// OS has every record; reopen from disk.
	db.Abandon()
	re, err := OpenWithOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := dumpDB(t, re)
	if !dumpsIdentical(want, got) {
		t.Fatalf("recovered state diverged: want %d tables (%d articles), got %d tables (%d articles)",
			len(want), len(want["articles"]), len(got), len(got["articles"]))
	}
	st := re.StorageStats()
	if st.RecoveredRecords == 0 {
		t.Error("no WAL records replayed")
	}
	if st.RecoveredTruncated {
		t.Error("clean log reported truncated")
	}
	// Indexes were rebuilt and work.
	reTbl, _ := re.Table("articles")
	if rows, err := lookupEq(reTbl, "outlet", String("moved")); err != nil || len(rows) != 1 {
		t.Fatalf("recovered index: %d %v", len(rows), err)
	}
	// The recovered DB accepts and persists new writes.
	if _, err := reTbl.Insert(articleRow(9999, "new", "after-recovery", 1)); err != nil {
		t.Fatal(err)
	}
}

func mustSchema(t *testing.T, pk string) *Schema {
	t.Helper()
	s, err := NewSchema([]Column{
		{Name: "article_id", Type: TString},
		{Name: "likes", Type: TInt},
	}, pk)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRecoverWALOnlyNoSnapshot crashes before the first checkpoint: the
// WAL alone (DDL + data records) must rebuild everything.
func TestRecoverWALOnlyNoSnapshot(t *testing.T) {
	dir := t.TempDir()
	db, tbl := openTestDB(t, dir)
	for i := int64(0); i < 40; i++ {
		tbl.Insert(articleRow(i, "o", "t", float64(i)))
	}
	want := dumpDB(t, db)
	if _, err := os.Stat(filepath.Join(dir, snapshotFile)); !os.IsNotExist(err) {
		t.Fatal("unexpected snapshot before first checkpoint")
	}
	db.Abandon()
	re, err := OpenWithOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := dumpDB(t, re); !dumpsIdentical(want, got) {
		t.Fatal("WAL-only recovery diverged")
	}
}

// TestTornFinalRecordTruncates simulates a crash mid-append: garbage bytes
// after the last complete record must be truncated away, never abort
// recovery (ErrCorrupt truncates, the issue's contract).
func TestTornFinalRecordTruncates(t *testing.T) {
	dir := t.TempDir()
	db, tbl := openTestDB(t, dir)
	for i := int64(0); i < 20; i++ {
		tbl.Insert(articleRow(i, "o", "t", float64(i)))
	}
	want := dumpDB(t, db)
	db.Abandon()
	seg := lastSegment(t, dir)
	pre, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	// A torn tail: a valid op byte then a partial table-name — exactly what
	// a crash between write and flush completion leaves behind.
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{walInsert, 200, 'x', 'y'})
	f.Close()

	re, err := OpenWithOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := dumpDB(t, re); !dumpsIdentical(want, got) {
		t.Fatal("torn-tail recovery diverged from pre-tear state")
	}
	st := re.StorageStats()
	if !st.RecoveredTruncated {
		t.Error("truncation not reported")
	}
	post, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if post.Size() != pre.Size() {
		t.Errorf("segment not truncated to last good boundary: %d vs %d", post.Size(), pre.Size())
	}
}

// TestMidStreamCorruptionTruncates flips bytes in the middle of the log:
// recovery keeps the clean prefix, truncates the rest and reports it.
func TestMidStreamCorruptionTruncates(t *testing.T) {
	dir := t.TempDir()
	db, tbl := openTestDB(t, dir)
	for i := int64(0); i < 50; i++ {
		tbl.Insert(articleRow(i, "o", "t", float64(i)))
	}
	db.Abandon() // crash without close
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	mid := len(data) / 2
	corrupted := append([]byte(nil), data...)
	for i := mid; i < mid+16 && i < len(corrupted); i++ {
		corrupted[i] = 0xEE
	}
	if err := os.WriteFile(seg, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := OpenWithOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	st := re.StorageStats()
	if !st.RecoveredTruncated {
		t.Error("mid-stream corruption not reported as truncation")
	}
	reTbl, err := re.Table("articles")
	if err != nil {
		t.Fatal("clean prefix (including DDL) lost")
	}
	n := reTbl.Len()
	if n == 0 || n >= 50 {
		t.Errorf("prefix rows: %d (want a strict non-empty prefix)", n)
	}
	// Every surviving row is intact.
	reTbl.Scan(func(r Row) bool {
		if r[1].Str() != "o" || r[2].Str() != "t" {
			t.Errorf("corrupted row survived: %v", r)
		}
		return true
	})
	post, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if int(post.Size()) > mid {
		t.Errorf("segment not truncated at corruption: %d > %d", post.Size(), mid)
	}
}

// TestMutateHeavyReplay pins recovery of a Mutate-dominated workload (the
// platform's aggregate rows): interleaved increments, deletes and
// re-inserts across a checkpoint boundary.
func TestMutateHeavyReplay(t *testing.T) {
	dir := t.TempDir()
	db, tbl := openTestDB(t, dir)
	for i := int64(0); i < 10; i++ {
		tbl.Insert(articleRow(i, "o", "agg", 0))
	}
	bump := func(id int64, by float64) {
		if err := tbl.Mutate(Int(id), func(r Row) (Row, error) {
			r[3] = Float(r[3].Float() + by)
			return r, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 50; round++ {
		for i := int64(0); i < 10; i++ {
			bump(i, float64(i+1))
		}
		if round == 20 {
			if _, err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if round == 30 {
			tbl.Delete(Int(3))
			tbl.Insert(articleRow(3, "o", "reborn", 0))
		}
	}
	want := dumpDB(t, db)
	db.Abandon()
	re, err := OpenWithOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := dumpDB(t, re); !dumpsIdentical(want, got) {
		t.Fatal("mutate-heavy replay diverged")
	}
}

// TestCheckpointConcurrentWithWrites runs checkpoints while writers
// hammer the store (-race covers the locking), then verifies a crash
// reopen converges to the final pre-crash state.
func TestCheckpointConcurrentWithWrites(t *testing.T) {
	dir := t.TempDir()
	db, tbl := openTestDB(t, dir)
	const workers = 4
	const perWorker = 120
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Checkpointer races the writers.
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
				if _, err := tbl.Insert(articleRow(id, fmt.Sprintf("o%d", w), "c", 0)); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if err := tbl.Mutate(Int(id), func(r Row) (Row, error) {
					r[3] = Float(1)
					return r, nil
				}); err != nil {
					t.Errorf("mutate: %v", err)
					return
				}
				tbl.Get(Int(id))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if err := <-ckptDone; err != nil {
		t.Fatalf("checkpoint during writes: %v", err)
	}
	want := dumpDB(t, db)
	db.Abandon()

	re, err := OpenWithOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := dumpDB(t, re); !dumpsIdentical(want, got) {
		t.Fatal("online-checkpoint recovery diverged")
	}
	if re.StorageStats().Rows != workers*perWorker {
		t.Fatalf("rows: %d", re.StorageStats().Rows)
	}
}

// TestCheckpointPrunesSegments verifies the WAL segment lifecycle and the
// storage stats counters.
func TestCheckpointPrunesSegments(t *testing.T) {
	dir := t.TempDir()
	db, tbl := openTestDB(t, dir)
	for i := int64(0); i < 10; i++ {
		tbl.Insert(articleRow(i, "o", "t", 0))
	}
	for k := 0; k < 3; k++ {
		st, err := db.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if k == 0 {
			// First checkpoint: a full base generation carrying every row.
			if st.SnapshotBytes <= 0 || st.Rows != 10 || st.Tables != 1 || !st.Full || st.Generation == 0 {
				t.Fatalf("base checkpoint stats: %+v", st)
			}
		} else if st.Generation != 0 || st.PartitionsWritten != 0 {
			// Nothing dirtied since: incremental checkpoints are no-ops.
			t.Fatalf("idle checkpoint wrote a generation: %+v", st)
		}
	}
	segs, err := walSegments(vfs.NewOS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("segments after checkpoints: %v", segs)
	}
	ss := db.StorageStats()
	if ss.Checkpoints != 3 || ss.WALSegment != 4 || ss.LastCheckpoint.IsZero() || !ss.Durable {
		t.Fatalf("storage stats: %+v", ss)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotRestoreRoundTrip writes a full snapshot generation to an
// in-memory sink and applies it to an empty database: rows, a partition
// count other than the default and both index kinds come back.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	db := NewDB()
	tbl, err := db.CreateTablePartitioned("articles", articleSchema(t), 3)
	if err != nil {
		t.Fatal(err)
	}
	tbl.CreateIndex("outlet", HashIndex)
	tbl.CreateIndex("published", OrderedIndex)
	for i := int64(0); i < 30; i++ {
		tbl.Insert(articleRow(i, fmt.Sprintf("o%d", i%3), "t", float64(i)))
	}
	var buf bytes.Buffer
	if _, _, _, _, err := writeGeneration(&buf, db.tablesSorted(), true); err != nil {
		t.Fatal(err)
	}
	re := NewDB()
	if err := applyGeneration(re, &buf); err != nil {
		t.Fatal(err)
	}
	if got, want := dumpDB(t, re), dumpDB(t, db); !dumpsIdentical(want, got) {
		t.Fatal("snapshot round trip diverged")
	}
	reTbl, _ := re.Table("articles")
	if reTbl.Partitions() != 3 {
		t.Errorf("partition count not preserved: %d vs 3", reTbl.Partitions())
	}
	if kind, ok := reTbl.IndexKindOf("published"); !ok || kind != OrderedIndex {
		t.Error("ordered index lost in snapshot")
	}
	if kind, ok := reTbl.IndexKindOf("outlet"); !ok || kind != HashIndex {
		t.Error("hash index lost in snapshot")
	}
	// Corrupt header is rejected cleanly.
	if err := applyGeneration(NewDB(), bytes.NewBufferString("not a snapshot")); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad magic: %v", err)
	}
}

// TestBrokenWALFailsWritesUntilCheckpoint: when an append cannot reach
// the OS, the mutation must fail (never an acknowledged-but-unlogged
// write), later writes must keep failing with ErrWALBroken, and a
// successful checkpoint — new segment + snapshot of the intact in-memory
// state — restores durability.
func TestBrokenWALFailsWritesUntilCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db, tbl := openTestDB(t, dir)
	for i := int64(0); i < 10; i++ {
		if _, err := tbl.Insert(articleRow(i, "o", "t", 0)); err != nil {
			t.Fatal(err)
		}
	}
	// Break the log: close the segment file out from under the WAL.
	db.wal.mu.Lock()
	db.wal.f.Close()
	db.wal.mu.Unlock()

	if _, err := tbl.Insert(articleRow(100, "o", "lost?", 0)); !errors.Is(err, ErrWALBroken) {
		t.Fatalf("insert on broken WAL: %v", err)
	}
	// The failed write was not applied: no phantom row the log cannot
	// recover.
	if _, err := tbl.Get(Int(100)); !errors.Is(err, ErrNotFound) {
		t.Error("unlogged insert was applied")
	}
	if err := tbl.Delete(Int(0)); !errors.Is(err, ErrWALBroken) {
		t.Fatalf("delete on broken WAL: %v", err)
	}
	if tbl.Len() != 10 {
		t.Fatalf("rows after refused writes: %d", tbl.Len())
	}
	if !walBroken(db) {
		t.Error("broken WAL not reported by Err")
	}

	// Checkpoint repairs: rotation starts a clean segment and the snapshot
	// captures the intact in-memory state.
	if _, err := db.Checkpoint(); err != nil {
		t.Fatalf("repair checkpoint: %v", err)
	}
	if walBroken(db) {
		t.Error("WAL still broken after checkpoint")
	}
	if _, err := tbl.Insert(articleRow(100, "o", "recovered", 0)); err != nil {
		t.Fatalf("insert after repair: %v", err)
	}
	want := dumpDB(t, db)
	if err := db.Close(); err != nil {
		t.Fatalf("close after repair: %v", err)
	}
	re, err := OpenWithOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := dumpDB(t, re); !dumpsIdentical(want, got) {
		t.Fatal("post-repair recovery diverged")
	}
}

// TestOpenErrors covers the in-memory guard rails.
func TestOpenErrors(t *testing.T) {
	if _, err := OpenWithOptions("", Options{}); !errors.Is(err, ErrNoDir) {
		t.Errorf("empty dir: %v", err)
	}
	db := NewDB()
	if _, err := db.Checkpoint(); !errors.Is(err, ErrNoDir) {
		t.Errorf("in-memory checkpoint: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Errorf("in-memory close: %v", err)
	}
}

// TestOpenRefusesSharedDir: a second live open of the same data directory
// must fail — two writers appending the same WAL segment would corrupt it.
// Close releases the lock; a crash releases it via the OS.
func TestOpenRefusesSharedDir(t *testing.T) {
	dir := t.TempDir()
	db, tbl := openTestDB(t, dir)
	tbl.Insert(articleRow(1, "o", "t", 0))
	if _, err := OpenWithOptions(dir, Options{}); !errors.Is(err, ErrLocked) {
		t.Fatalf("second open: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenWithOptions(dir, Options{})
	if err != nil {
		t.Fatalf("open after close: %v", err)
	}
	defer re.Close()
	if re.StorageStats().Rows != 1 {
		t.Errorf("rows: %d", re.StorageStats().Rows)
	}
	// Strings beyond the recovery decoder's bound are refused at write
	// time, not discovered as "corruption" at replay time.
	reTbl, _ := re.Table("articles")
	huge := articleRow(2, "o", "", 0)
	huge[2] = String(string(make([]byte, MaxStringBytes+1)))
	if _, err := reTbl.Insert(huge); !errors.Is(err, ErrSchema) {
		t.Errorf("oversized string accepted: %v", err)
	}
}
