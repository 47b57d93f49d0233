package rdbms

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"sort"
	"testing"

	"repro/internal/rdbms/vfs"
)

// replFixture opens a durable DB on mem with one table and n rows.
func replFixture(t *testing.T, mem vfs.FS, opts Options) (*DB, *Table) {
	t.Helper()
	opts.FS = mem
	db, err := OpenWithOptions("data", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	schema, err := NewSchema([]Column{
		{Name: "id", Type: TInt},
		{Name: "body", Type: TString},
	}, "id")
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTablePartitioned("articles", schema, 2)
	if err != nil {
		t.Fatal(err)
	}
	return db, tbl
}

func mustInsert(t *testing.T, tbl *Table, lo, hi int64) {
	t.Helper()
	for i := lo; i < hi; i++ {
		if _, err := tbl.Insert(Row{Int(i), String(fmt.Sprintf("row-%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
}

func statPath(fsys vfs.FS, path string) bool {
	_, err := fsys.Stat(path)
	return err == nil
}

// TestReplHoldWALSegments: a registered WAL hold keeps superseded
// segments through checkpoints — the slow-follower-survives-compaction
// contract — and releasing it lets the next checkpoint reclaim them.
func TestReplHoldWALSegments(t *testing.T) {
	mem := vfs.NewMem()
	db, tbl := replFixture(t, mem, Options{})
	mustInsert(t, tbl, 0, 10)

	db.HoldWAL("follower-1", 1)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if !statPath(mem, "data/wal-000001.log") {
		t.Fatal("held segment 1 pruned by checkpoint")
	}

	mustInsert(t, tbl, 10, 20)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if !statPath(mem, "data/wal-000001.log") || !statPath(mem, "data/wal-000002.log") {
		t.Fatal("held segments pruned while the hold was registered")
	}

	// The follower advances: only segments >= 2 stay pinned.
	db.HoldWAL("follower-1", 2)
	mustInsert(t, tbl, 20, 30)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if statPath(mem, "data/wal-000001.log") {
		t.Fatal("segment 1 survived after the hold advanced past it")
	}
	if !statPath(mem, "data/wal-000002.log") {
		t.Fatal("segment 2 pruned while still held")
	}

	db.ReleaseReplHold("follower-1")
	mustInsert(t, tbl, 30, 40)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if statPath(mem, "data/wal-000002.log") || statPath(mem, "data/wal-000003.log") {
		t.Fatal("released segments not reclaimed")
	}
}

// TestReplHoldGenerations: ReplManifest(id) pins the generation chain it
// returned, so a compaction racing a follower's initial sync cannot
// delete the generation files mid-download.
func TestReplHoldGenerations(t *testing.T) {
	mem := vfs.NewMem()
	// Negative delta limit: every checkpoint is full, so each one is a
	// compaction that would normally retire every older generation.
	db, tbl := replFixture(t, mem, Options{DeltaLimit: -1})
	mustInsert(t, tbl, 0, 10)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	m, err := db.ReplManifest("follower-1")
	if err != nil {
		t.Fatal(err)
	}
	if m.Base == 0 || len(m.Chain()) == 0 {
		t.Fatalf("manifest after checkpoint: %+v", m)
	}
	genPath := fmt.Sprintf("data/snap-%06d/tables.dat", m.Base)
	if !statPath(mem, genPath) {
		t.Fatalf("generation %d data missing", m.Base)
	}

	mustInsert(t, tbl, 10, 20)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if !statPath(mem, genPath) {
		t.Fatal("held generation pruned by compaction during initial sync")
	}

	// Moving to WAL streaming drops the generation holds; the next
	// compaction retires the old generation.
	db.HoldWAL("follower-1", m.StartSegment())
	mustInsert(t, tbl, 20, 30)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if statPath(mem, genPath) {
		t.Fatal("generation survived after holds were narrowed to the WAL")
	}
}

// keepRecords returns an emit callback that copies each record into *into.
func keepRecords(into *[][]byte) func([]byte) error {
	return func(rec []byte) error {
		*into = append(*into, append([]byte(nil), rec...))
		return nil
	}
}

// collectRecords drains every complete record of a segment from off with
// a fresh tail reader, returning them and the offset the reader stopped at.
func collectRecords(t *testing.T, db *DB, seq int, off int64) ([][]byte, int64) {
	t.Helper()
	tail, err := db.OpenWALTail(seq, off)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	var recs [][]byte
	if _, err := tail.Poll(keepRecords(&recs)); err != nil {
		t.Fatal(err)
	}
	return recs, tail.off
}

// tableRows returns every row sorted by primary key for comparison.
func tableRows(tbl *Table) []Row {
	var rows []Row
	tbl.Scan(func(r Row) bool {
		rows = append(rows, append(Row(nil), r...))
		return true
	})
	sort.Slice(rows, func(i, j int) bool { return rows[i][0].Int() < rows[j][0].Int() })
	return rows
}

// TestWALTailRoundTrip: the records a tail reader emits replay into an
// identical table on a second database, and re-applying the whole stream
// is a no-op (loose apply is idempotent).
func TestWALTailRoundTrip(t *testing.T) {
	mem := vfs.NewMem()
	db, tbl := replFixture(t, mem, Options{})
	mustInsert(t, tbl, 0, 25)
	if err := tbl.Update(Int(3), Row{Int(3), String("updated")}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Delete(Int(7)); err != nil {
		t.Fatal(err)
	}

	recs, end := collectRecords(t, db, 1, 0)
	if len(recs) == 0 {
		t.Fatal("no records streamed")
	}
	if size, err := db.WALSegmentSize(1); err != nil || end != size {
		t.Fatalf("stream stopped at %d, segment size %d (err %v)", end, size, err)
	}

	follower := NewDB()
	for pass := 0; pass < 2; pass++ {
		for i, rec := range recs {
			if err := follower.ApplyReplRecord(rec); err != nil {
				t.Fatalf("pass %d record %d: %v", pass, i, err)
			}
		}
		ftbl, err := follower.Table("articles")
		if err != nil {
			t.Fatal(err)
		}
		if got, want := tableRows(ftbl), tableRows(tbl); !rowsIdentical(got, want) {
			t.Fatalf("pass %d: follower diverged: %d rows vs %d", pass, len(got), len(want))
		}
	}
}

// TestWALTailTornTail: a partial record at the end of a segment is never
// emitted — not by the reader that was open when it appeared, not by one
// resuming at the boundary before it — and both emit it, once, when the
// record completes.
func TestWALTailTornTail(t *testing.T) {
	mem := vfs.NewMem()
	db, tbl := replFixture(t, mem, Options{})
	mustInsert(t, tbl, 0, 5)

	live, err := db.OpenWALTail(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	var recs [][]byte
	if _, err := live.Poll(keepRecords(&recs)); err != nil {
		t.Fatal(err)
	}
	n, end := len(recs), live.off

	// Tear: append the first half of a real record encoding.
	torn := recs[0]
	f, err := mem.OpenAppend("data/wal-000001.log")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(torn[:len(torn)/2]); err != nil {
		t.Fatal(err)
	}

	if k, err := live.Poll(keepRecords(&recs)); err != nil || k != 0 || live.off != end {
		t.Fatalf("open reader leaked a torn tail: %d records to offset %d, want 0 to %d (err %v)", k, live.off, end, err)
	}
	if all, end2 := collectRecords(t, db, 1, 0); len(all) != n || end2 != end {
		t.Fatalf("torn tail leaked: %d records to offset %d, want %d to %d", len(all), end2, n, end)
	}
	resumed, err := db.OpenWALTail(1, end)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	var late [][]byte
	if k, err := resumed.Poll(keepRecords(&late)); err != nil || k != 0 || resumed.off != end {
		t.Fatalf("resume emitted %d records past a torn tail (err %v)", k, err)
	}

	// The record completes: each reader emits it exactly once.
	if _, err := f.Write(torn[len(torn)/2:]); err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*WALTail{"open": live, "resumed": resumed} {
		var got [][]byte
		if _, err := r.Poll(keepRecords(&got)); err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || !bytes.Equal(got[0], torn) {
			t.Fatalf("%s reader: completed record emitted %d times", name, len(got))
		}
		if k, err := r.Poll(keepRecords(&got)); err != nil || k != 0 {
			t.Fatalf("%s reader: record emitted again (%d, err %v)", name, k, err)
		}
	}
}

// TestOpenWALTailRejectsBadCursor: the errors a stream is refused with.
func TestOpenWALTailRejectsBadCursor(t *testing.T) {
	mem := vfs.NewMem()
	db, tbl := replFixture(t, mem, Options{})
	mustInsert(t, tbl, 0, 3)
	size, err := db.WALSegmentSize(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.OpenWALTail(1, size+1); !errors.Is(err, ErrReplDiverged) {
		t.Fatalf("offset beyond segment: %v", err)
	}
	if _, err := db.OpenWALTail(99, 0); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing segment: %v", err)
	}
	if _, err := NewDB().OpenWALTail(1, 0); !errors.Is(err, ErrNoDir) {
		t.Fatalf("in-memory database: %v", err)
	}
}

// TestApplyReplRecordRejectsPartial: truncated or padded record bytes are
// corruption, applied never.
func TestApplyReplRecordRejectsPartial(t *testing.T) {
	mem := vfs.NewMem()
	db, tbl := replFixture(t, mem, Options{})
	mustInsert(t, tbl, 0, 2)
	recs, _ := collectRecords(t, db, 1, 0)
	rec := recs[len(recs)-1]

	follower := NewDB()
	if err := follower.ApplyReplRecord(rec[:len(rec)-1]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated record: %v", err)
	}
	if err := follower.ApplyReplRecord(append(append([]byte(nil), rec...), 0)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("padded record: %v", err)
	}
}

// TestVerifyWALTail: matching cursors verify; a rewritten history, an
// offset past the end, and a pruned segment are each detected.
func TestVerifyWALTail(t *testing.T) {
	mem := vfs.NewMem()
	db, tbl := replFixture(t, mem, Options{})
	mustInsert(t, tbl, 0, 10)

	size, err := db.WALSegmentSize(1)
	if err != nil {
		t.Fatal(err)
	}
	n := replTailHashLen
	if int64(n) > size {
		n = int(size)
	}
	sum, err := db.WALTailHash(1, size, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.VerifyWALTail(1, size, n, sum); err != nil {
		t.Fatalf("aligned cursor rejected: %v", err)
	}
	if err := db.VerifyWALTail(1, size, n, sum^1); !errors.Is(err, ErrReplDiverged) {
		t.Fatalf("hash mismatch not detected: %v", err)
	}
	if err := db.VerifyWALTail(1, size+100, n, sum); !errors.Is(err, ErrReplDiverged) {
		t.Fatalf("offset beyond segment not detected: %v", err)
	}
	if err := db.VerifyWALTail(99, 0, 0, 0); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing segment: %v", err)
	}
	// The window is a claim from the wire: one no follower could have
	// hashed is refused before a byte is read for it.
	if err := db.VerifyWALTail(1, size, replTailHashLen+1, sum); !errors.Is(err, ErrReplDiverged) {
		t.Fatalf("oversized tail window: %v", err)
	}
	// A fresh cursor (nothing applied yet in the segment) carries no hash.
	if err := db.VerifyWALTail(1, 0, 0, 0); err != nil {
		t.Fatalf("fresh cursor rejected: %v", err)
	}
}

// TestGenerationStreamSync: a follower bootstraps by applying the served
// generation chain and ends bit-equal, with table handles staying valid
// across a ResetTables + re-sync.
func TestGenerationStreamSync(t *testing.T) {
	mem := vfs.NewMem()
	db, tbl := replFixture(t, mem, Options{})
	mustInsert(t, tbl, 0, 30)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, tbl, 30, 40)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	m, err := db.ReplManifest("f")
	if err != nil {
		t.Fatal(err)
	}
	follower := NewDB()
	syncChain := func() {
		t.Helper()
		for _, gen := range m.Chain() {
			rc, err := db.OpenGeneration(gen)
			if err != nil {
				t.Fatal(err)
			}
			err = follower.ApplyGenerationStream(rc)
			cerr := rc.Close()
			if err != nil || cerr != nil {
				t.Fatalf("apply generation %d: %v / %v", gen, err, cerr)
			}
		}
	}
	syncChain()
	ftbl, err := follower.Table("articles")
	if err != nil {
		t.Fatal(err)
	}
	if !rowsIdentical(tableRows(ftbl), tableRows(tbl)) {
		t.Fatal("follower diverged after generation sync")
	}
	if ftbl.Partitions() != tbl.Partitions() {
		t.Fatalf("partition count %d, want %d", ftbl.Partitions(), tbl.Partitions())
	}

	// Divergent local writes are wiped by a resync; the old handle stays
	// usable throughout.
	if _, err := ftbl.Insert(Row{Int(999), String("local divergence")}); err != nil {
		t.Fatal(err)
	}
	follower.ResetTables()
	if ftbl.Len() != 0 {
		t.Fatalf("reset left %d rows", ftbl.Len())
	}
	syncChain()
	if !rowsIdentical(tableRows(ftbl), tableRows(tbl)) {
		t.Fatal("follower diverged after resync")
	}
}

// TestOpenGenerationMissing pins the error a follower keys resync off.
func TestOpenGenerationMissing(t *testing.T) {
	mem := vfs.NewMem()
	db, _ := replFixture(t, mem, Options{})
	rc, err := db.OpenGeneration(42)
	if err == nil {
		_ = rc.Close()
		t.Fatal("opened a generation that does not exist")
	}
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("want fs.ErrNotExist, got %v", err)
	}
	var _ io.ReadCloser = rc
}
