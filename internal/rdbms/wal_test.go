package rdbms

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// bufFile is a segment file whose bytes land in a bytes.Buffer, so a test
// reads back exactly what the WAL wrote.
type bufFile struct{ *bytes.Buffer }

func (bufFile) ReadAt([]byte, int64) (int, error) { return 0, io.EOF }
func (bufFile) Close() error                      { return nil }
func (bufFile) Sync() error                       { return nil }
func (bufFile) Stat() (fs.FileInfo, error)        { return nil, errors.ErrUnsupported }

// newBufDB returns a database whose WAL appends to one segment held in buf,
// under the checkpoint fsync policy: each record reaches buf as it is
// appended.
func newBufDB(buf *bytes.Buffer) *DB {
	db := NewDB()
	db.wal = newWALFile(bufFile{buf}, FsyncCheckpoint, 0, newMetrics(nil))
	return db
}

func walDB(t *testing.T, buf *bytes.Buffer) (*DB, *Table) {
	t.Helper()
	db := newBufDB(buf)
	tbl, err := db.CreateTable("articles", articleSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	return db, tbl
}

// replay decodes a serialised WAL record by record and applies each to db
// as recovery does, stopping at the first record that fails to decode or
// to apply. It returns the number of records applied. Unlike recovery it
// reports a torn or corrupt record instead of truncating at it, so the
// tests see the decoder's verdict.
func replay(db *DB, r io.Reader) (int, error) {
	br := bufio.NewReader(r)
	applied := 0
	for {
		rec, err := readRecord(br)
		if err == io.EOF {
			return applied, nil
		}
		if err != nil {
			return applied, err
		}
		if err := applyRecord(db, rec); err != nil {
			return applied, fmt.Errorf("replay %d: %w", applied, err)
		}
		applied++
	}
}

func TestWALRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	db, tbl := walDB(t, &buf)
	tbl.Insert(articleRow(1, "outlet-a", "first", 0.25))
	tbl.Insert(articleRow(2, "outlet-b", "second", 0.5))
	update(tbl, Int(2), articleRow(2, "outlet-b", "second-v2", 0.75))
	tbl.Insert(articleRow(3, "outlet-c", "third", 0.9))
	tbl.Delete(Int(1))

	// 1 create-table DDL record + 5 data records.
	if db.wal.Records() != 6 {
		t.Errorf("records: %d", db.wal.Records())
	}
	if db.wal.Bytes() <= 0 {
		t.Error("bytes not counted")
	}

	// Replay into a fresh, empty DB: the DDL record recreates the table.
	db2 := NewDB()
	applied, err := replay(db2, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if applied != 6 {
		t.Errorf("applied: %d", applied)
	}
	tbl2, _ := db2.Table("articles")
	if tbl2.Len() != 2 {
		t.Errorf("replayed rows: %d", tbl2.Len())
	}
	got, err := tbl2.Get(Int(2))
	if err != nil {
		t.Fatal(err)
	}
	if got[2].Str() != "second-v2" || got[3].Float() != 0.75 {
		t.Errorf("replayed row: %v", got)
	}
	if _, err := tbl2.Get(Int(1)); !errors.Is(err, ErrNotFound) {
		t.Error("deleted row resurrected")
	}
}

func TestWALNullAndAllTypes(t *testing.T) {
	var buf bytes.Buffer
	_, tbl := walDB(t, &buf)
	row := Row{
		Int(7), String("outlet"), Null(), Float(1.5),
		Time(time.Date(2020, 3, 15, 12, 30, 0, 123456789, time.UTC)),
		Bool(true),
	}
	if _, err := tbl.Insert(row); err != nil {
		t.Fatal(err)
	}

	db2 := NewDB()
	db2.CreateTable("articles", articleSchema(t))
	if _, err := replay(db2, bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	tbl2, _ := db2.Table("articles")
	got, err := tbl2.Get(Int(7))
	if err != nil {
		t.Fatal(err)
	}
	if !got[2].IsNull() {
		t.Error("null not preserved")
	}
	if !got[4].Time().Equal(row[4].Time()) {
		t.Errorf("time: %v vs %v", got[4].Time(), row[4].Time())
	}
	if got[5].Bool() != true {
		t.Error("bool")
	}
}

// TestWALCommitMarker: nothing writes commit markers any more, but logs
// written by older binaries hold them, so replay must still count one —
// strict and loose alike — and apply nothing for it. The marker names no
// table that exists.
func TestWALCommitMarker(t *testing.T) {
	var buf bytes.Buffer
	db, tbl := walDB(t, &buf)
	tbl.Insert(articleRow(1, "o", "t", 0))
	bw := bufio.NewWriter(&buf)
	writeRecord(bw, walRecord{Op: walCommit})
	writeRecord(bw, walRecord{Op: walCommit, Table: "no-such-table"})
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	want := dumpDB(t, db)

	db2 := NewDB()
	applied, err := replay(db2, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// 1 create-table + 1 insert + 2 commit markers.
	if applied != 4 {
		t.Errorf("applied: %d", applied)
	}
	if got := dumpDB(t, db2); !dumpsIdentical(want, got) {
		t.Errorf("commit markers changed the replayed state: %v", got)
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := OpenWithOptions(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if st := re.StorageStats(); st.RecoveredRecords != 4 || st.RecoveredTruncated {
		t.Errorf("recovery: %d records, truncated %v", st.RecoveredRecords, st.RecoveredTruncated)
	}
	if got := dumpDB(t, re); !dumpsIdentical(want, got) {
		t.Errorf("commit markers changed the recovered state: %v", got)
	}
}

func TestWALCorruptInput(t *testing.T) {
	db := NewDB()
	db.CreateTable("articles", articleSchema(t))
	// Bad op byte.
	if _, err := replay(db, bytes.NewReader([]byte{0x77, 0x01, 'x'})); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad op: %v", err)
	}
	// Truncated record: op + partial table name length.
	var buf bytes.Buffer
	_, tbl := walDB(t, &buf)
	tbl.Insert(articleRow(1, "o", "t", 0))
	trunc := buf.Bytes()[:buf.Len()-3]
	db2 := NewDB()
	db2.CreateTable("articles", articleSchema(t))
	if _, err := replay(db2, bytes.NewReader(trunc)); err == nil {
		t.Error("truncated WAL should fail")
	}
}

func TestWALUnknownTableOnReplay(t *testing.T) {
	// A data record with no preceding DDL (hand-crafted log): the table is
	// genuinely unknown to the replaying database.
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	writeRecord(bw, walRecord{Op: walInsert, Table: "articles", Row: articleRow(1, "o", "t", 0)})
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	empty := NewDB() // no tables
	if _, err := replay(empty, bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing table: %v", err)
	}
}

func TestWALDDLReplayRebuildsTableAndIndexes(t *testing.T) {
	var buf bytes.Buffer
	_, tbl := walDB(t, &buf)
	if err := tbl.CreateIndex("outlet", HashIndex); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("score", OrderedIndex); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 8; i++ {
		tbl.Insert(articleRow(i, "o", "t", float64(i)))
	}

	db2 := NewDB()
	if _, err := replay(db2, bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	tbl2, err := db2.Table("articles")
	if err != nil {
		t.Fatal(err)
	}
	if tbl2.Len() != 8 {
		t.Errorf("rows: %d", tbl2.Len())
	}
	if kind, ok := tbl2.IndexKindOf("outlet"); !ok || kind != HashIndex {
		t.Errorf("outlet index not rebuilt: %v %v", kind, ok)
	}
	if kind, ok := tbl2.IndexKindOf("score"); !ok || kind != OrderedIndex {
		t.Errorf("score index not rebuilt: %v %v", kind, ok)
	}
	lo, hi := Float(3), Float(5)
	n := 0
	if err := tbl2.Range("score", &lo, &hi, func(Row) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("range over rebuilt index: %d rows", n)
	}
}

func TestValueEncodingRoundTripProperty(t *testing.T) {
	check := func(i int64, f float64, s string, b bool, nanos int64) bool {
		var buf bytes.Buffer
		db := newBufDB(&buf)
		schema, _ := NewSchema([]Column{
			{Name: "id", Type: TInt},
			{Name: "f", Type: TFloat},
			{Name: "s", Type: TString},
			{Name: "b", Type: TBool},
			{Name: "t", Type: TTime},
		}, "id")
		tbl, _ := db.CreateTable("t", schema)
		row := Row{Int(i), Float(f), String(s), Bool(b), Time(time.Unix(0, nanos))}
		if _, err := tbl.Insert(row); err != nil {
			return false
		}
		db2 := NewDB()
		db2.CreateTable("t", schema)
		if _, err := replay(db2, bytes.NewReader(buf.Bytes())); err != nil {
			return false
		}
		tbl2, _ := db2.Table("t")
		got, err := tbl2.Get(Int(i))
		if err != nil {
			return false
		}
		// Float NaN != NaN under Equal; compare bit patterns via Str trick.
		if f != f { // NaN: only require it decoded to NaN
			return got[1].Float() != got[1].Float()
		}
		return got[1].Float() == f && got[2].Str() == s && got[3].Bool() == b &&
			got[4].Time().Equal(time.Unix(0, nanos).UTC())
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// A length prefix is a claim, not a fact: a 20-byte torn record whose
// string says "16 MiB follow" must fail without reserving 16 MiB.
func TestReadStringTruncatedClaimAllocatesBounded(t *testing.T) {
	var claim bytes.Buffer
	bw := bufio.NewWriter(&claim)
	writeUvarint(bw, 1<<24)
	bw.WriteString("sixteen bytes...")
	bw.Flush()
	input := claim.Bytes()
	if len(input) != 20 {
		t.Fatalf("input is %d bytes, want 20", len(input))
	}

	rd := bytes.NewReader(input)
	br := bufio.NewReaderSize(rd, 4096)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 50
	for i := 0; i < runs; i++ {
		rd.Reset(input)
		br.Reset(rd)
		if s, err := readString(br); err == nil {
			t.Fatalf("truncated string decoded to %d bytes", len(s))
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 2*readStringChunk {
		t.Errorf("truncated 16 MiB claim allocates %d B per attempt, want <= %d", per, 2*readStringChunk)
	}

	// The same claim inside a record is a torn tail like any other.
	rec := append([]byte{walInsert}, input...)
	if _, err := readRecord(bufio.NewReader(bytes.NewReader(rec))); !errors.Is(err, ErrCorrupt) {
		t.Errorf("torn record: %v, want ErrCorrupt", err)
	}
	var over bytes.Buffer
	bw = bufio.NewWriter(&over)
	writeUvarint(bw, 1<<24+1)
	bw.Flush()
	if _, err := readString(bufio.NewReader(&over)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("over-long claim: %v, want ErrCorrupt", err)
	}
}

// A cell count is a claim too: a 5-byte record — op, empty table name,
// 65 536 cells — must fail without reserving 65 536 cells (2 MiB), and so
// must a CREATE TABLE claiming 4 096 columns. Rows that do arrive in full
// keep len == cap past the pre-sized width.
func TestReadRowTruncatedClaimAllocatesBounded(t *testing.T) {
	var create bytes.Buffer
	bw := bufio.NewWriter(&create)
	bw.WriteByte(walCreateTable)
	writeString(bw, "")
	writeUvarint(bw, 1)
	writeUvarint(bw, 1<<12)
	bw.Flush()
	claims := map[string][]byte{
		"row":     {walInsert, 0, 0x80, 0x80, 0x04},
		"columns": create.Bytes(),
	}
	for name, input := range claims {
		rd := bytes.NewReader(input)
		br := bufio.NewReaderSize(rd, 4096)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 50
		for i := 0; i < runs; i++ {
			rd.Reset(input)
			br.Reset(rd)
			if _, err := readRecord(br); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: truncated claim: %v, want ErrCorrupt", name, err)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 2048 {
			t.Errorf("%d-byte record claiming %s allocates %d B per attempt, want <= 2048", len(input), name, per)
		}
	}

	for _, n := range []int{0, 1, 32, 33, 101, 1000} {
		row := make(Row, n)
		for i := range row {
			row[i] = Int(int64(i))
		}
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		writeRow(bw, row)
		bw.Flush()
		got, err := readRow(bufio.NewReader(&buf))
		if err != nil || !got.Identical(row) {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(got) != cap(got) {
			t.Errorf("n=%d: decoded row has cap %d", n, cap(got))
		}
	}
}

// Strings shorter than, equal to and several times the reader's buffer
// come back whole, each built with a single allocation up to one chunk.
func TestReadStringSizes(t *testing.T) {
	for _, n := range []int{0, 1, 15, 16, 17, 4096, readStringChunk, readStringChunk + 1, 5*readStringChunk + 3} {
		want := strings.Repeat("abcdefghij", n/10+1)[:n]
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		writeString(bw, want)
		bw.WriteByte(0x7f) // the byte after the string must stay unread
		bw.Flush()
		br := bufio.NewReaderSize(bytes.NewReader(buf.Bytes()), 16)
		got, err := readString(br)
		if err != nil || got != want {
			t.Fatalf("n=%d: got %d bytes, err %v", n, len(got), err)
		}
		if b, err := br.ReadByte(); err != nil || b != 0x7f {
			t.Errorf("n=%d: reader left at %#x, %v", n, b, err)
		}
		if n == 0 || n > readStringChunk {
			continue
		}
		rd := bytes.NewReader(buf.Bytes())
		if allocs := testing.AllocsPerRun(20, func() {
			rd.Reset(buf.Bytes())
			br.Reset(rd)
			readString(br)
		}); allocs != 1 {
			t.Errorf("n=%d: %v allocations, want 1", n, allocs)
		}
	}
}
