package rdbms

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// TestDropTableKillRecover pins the ROADMAP carried-forward bug: DropTable
// is WAL-logged, so a table dropped after a checkpoint captured it must
// NOT resurrect when a crash forces recovery from snapshot + WAL replay.
func TestDropTableKillRecover(t *testing.T) {
	dir := t.TempDir()
	db, tbl := openTestDB(t, dir)
	social, err := db.CreateTable("social", mustSchema(t, "article_id"))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 20; i++ {
		tbl.Insert(articleRow(i, "o", "keep", float64(i)))
		social.Insert(Row{String(fmt.Sprintf("a-%d", i)), Int(i)})
	}
	// The chain now carries both tables; the drop exists only in the WAL.
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.DropTable("social"); err != nil {
		t.Fatal(err)
	}

	db.Abandon() // crash: recovery = chain (with social) + WAL (with the drop)
	re, err := OpenWithOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, err := re.Table("social"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("dropped table resurrected by recovery: err=%v", err)
	}
	reTbl, err := re.Table("articles")
	if err != nil {
		t.Fatal(err)
	}
	if reTbl.Len() != 20 {
		t.Fatalf("surviving table lost rows: %d", reTbl.Len())
	}
}

// TestDropTableForcesCompaction: a checkpoint after a drop must write a
// FULL generation. A delta would advance the WAL floor past the drop
// record while an older chained generation still carries the table — the
// next recovery would resurrect it from the chain with no WAL record left
// to drop it again.
func TestDropTableForcesCompaction(t *testing.T) {
	dir := t.TempDir()
	db, tbl := openTestDB(t, dir)
	social, err := db.CreateTable("social", mustSchema(t, "article_id"))
	if err != nil {
		t.Fatal(err)
	}
	social.Insert(Row{String("a"), Int(1)})
	if _, err := db.Checkpoint(); err != nil { // base: social captured
		t.Fatal(err)
	}
	tbl.Insert(articleRow(1, "o", "t", 1))
	if st, err := db.Checkpoint(); err != nil || st.Full {
		t.Fatalf("fixture: wanted a delta checkpoint, got full=%v err=%v", st.Full, err)
	}

	if err := db.DropTable("social"); err != nil {
		t.Fatal(err)
	}
	st, err := db.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Full {
		t.Fatalf("checkpoint after drop was a delta: %+v", st)
	}

	// The drop is now folded into the base: later checkpoints go back to
	// deltas, and recovery (whose WAL has no drop record left) must not
	// resurrect the table.
	tbl.Insert(articleRow(2, "o", "t", 2))
	if st, err := db.Checkpoint(); err != nil || st.Full {
		t.Fatalf("post-drop checkpoint not a delta: full=%v err=%v", st.Full, err)
	}
	db.Abandon()
	re, err := OpenWithOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, err := re.Table("social"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("dropped table resurrected after compaction: err=%v", err)
	}
}

// TestReplayDropTable: a drop-table record replayed after the create
// removes the table again.
func TestReplayDropTable(t *testing.T) {
	var buf bytes.Buffer
	db := newBufDB(&buf)
	if _, err := db.CreateTable("articles", articleSchema(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("social", mustSchema(t, "article_id")); err != nil {
		t.Fatal(err)
	}
	if err := db.DropTable("social"); err != nil {
		t.Fatal(err)
	}

	re := NewDB()
	if _, err := replay(re, &buf); err != nil {
		t.Fatal(err)
	}
	if _, err := re.Table("articles"); err != nil {
		t.Fatal(err)
	}
	if _, err := re.Table("social"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("replay resurrected dropped table: err=%v", err)
	}
}
