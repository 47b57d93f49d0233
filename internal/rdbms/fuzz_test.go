package rdbms

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/rdbms/vfs"
)

// The three decoders that read bytes this process did not write — WAL
// records (from disk and from a primary over HTTP), snapshot generations
// and the MANIFEST — are fuzzed for three properties: they never panic,
// every failure is the package's corruption error, and what they accept
// survives the matching encoder. Byte identity does not hold: uvarints
// need not be minimal, and any NOT NULL or bool byte other than 1 reads as
// false. Seeds live under testdata/fuzz/<name>/: the golden row, the
// fixture store in testdata/parent-pr16, a warehouse day written by
// ExportTables and a few hand-built edge cases.

// FuzzReadRecord reads WAL records until the first error. The input must
// end at a record boundary (io.EOF) or fail with ErrCorrupt; decoding may
// allocate at most two string chunks plus 64 bytes per input byte — a
// 16-byte cell needs at least one byte, and a claimed count or length is
// never trusted beyond what has arrived; and the records decoded must
// re-encode to bytes that decode to the same records.
func FuzzReadRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		// Every record is at least two bytes (op, table-name length), so
		// this never grows while allocations are counted.
		recs := make([]walRecord, 0, len(data)/2+1)
		br := bufio.NewReader(bytes.NewReader(data))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var err error
		for {
			var rec walRecord
			if rec, err = readRecord(br); err != nil {
				break
			}
			recs = append(recs, rec)
		}
		runtime.ReadMemStats(&after)
		if err != io.EOF && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("record %d: %v, want io.EOF or ErrCorrupt", len(recs), err)
		}
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*readStringChunk+64*len(data)); got > limit {
			t.Fatalf("decoding %d bytes allocated %d B, limit %d", len(data), got, limit)
		}

		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		for _, rec := range recs {
			writeRecord(bw, rec)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		br = bufio.NewReader(&buf)
		for i, want := range recs {
			got, err := readRecord(br)
			if err != nil {
				t.Fatalf("re-encoded record %d: %v", i, err)
			}
			if !recordsIdentical(got, want) {
				t.Fatalf("record %d: re-encoded as %+v, decoded first as %+v", i, got, want)
			}
		}
		if _, err := readRecord(br); err != io.EOF {
			t.Fatalf("re-encoding ends with %v, want io.EOF", err)
		}
	})
}

// recordsIdentical compares two decoded records: key and row cell by cell
// with identical, every other field with reflect.DeepEqual.
func recordsIdentical(a, b walRecord) bool {
	if !a.Key.identical(b.Key) || !a.Row.Identical(b.Row) {
		return false
	}
	a.Key, a.Row, b.Key, b.Row = Value{}, nil, Value{}, nil
	return reflect.DeepEqual(a, b)
}

// FuzzApplyGeneration applies the input to an empty database. It must fail
// with ErrCorrupt or succeed, and a database it built must write a full
// generation that rebuilds the same tables: partition counts, schemas,
// index kinds and rows.
//
// Allocation is not bounded here. A table header claims up to
// MaxPartitions stripes in three bytes, and the stripes are built as
// claimed: one such 14-byte table allocates 15.3 MB in 196 632 objects
// (three per stripe; measured on linux/amd64, Go 1.24), and a generation
// may hold many. Bounding that needs a format change — a checksum over the
// header, checked before the stripes are built — so it waits for one.
func FuzzApplyGeneration(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		db := NewDB()
		if err := applyGeneration(db, bytes.NewReader(data)); err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%v, want ErrCorrupt", err)
			}
			return
		}
		var buf bytes.Buffer
		if _, _, _, _, err := writeGeneration(&buf, db.tablesSorted(), true); err != nil {
			t.Fatal(err)
		}
		re := NewDB()
		if err := applyGeneration(re, &buf); err != nil {
			t.Fatalf("a generation written from an applied one: %v", err)
		}
		if got, want := tableStates(re), tableStates(db); !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, want)
		}
	})
}

// tableState is what a generation must carry for one table. Rows are
// compared as their encodings, sorted: keys like NaN and ±0 do not order
// under Compare, and the encoding is what recovery would rebuild from.
type tableState struct {
	Partitions int
	Cols       []Column
	PK         int
	Indexes    map[string]IndexKind
	Rows       []string
}

func tableStates(db *DB) map[string]tableState {
	out := map[string]tableState{}
	for _, tbl := range db.tablesSorted() {
		st := tableState{
			Partitions: tbl.Partitions(),
			Cols:       tbl.Schema().Cols,
			PK:         tbl.Schema().PK,
			Indexes:    map[string]IndexKind{},
		}
		for _, c := range tbl.Schema().Cols {
			if kind, ok := tbl.IndexKindOf(c.Name); ok {
				st.Indexes[c.Name] = kind
			}
		}
		tbl.Scan(func(r Row) bool {
			var buf bytes.Buffer
			bw := bufio.NewWriter(&buf)
			writeRow(bw, r)
			bw.Flush()
			st.Rows = append(st.Rows, buf.String())
			return true
		})
		sort.Strings(st.Rows)
		out[tbl.Name()] = st
	}
	return out
}

// FuzzReadManifest parses the input as a data directory's MANIFEST. It
// must fail with ErrManifest or return a chain that writeManifest installs
// and readManifest reads back unchanged.
func FuzzReadManifest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fsys := vfs.NewMem()
		dir := "/data"
		if err := fsys.MkdirAll(dir); err != nil {
			t.Fatal(err)
		}
		mf, err := fsys.Create(filepath.Join(dir, manifestFile))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mf.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := mf.Close(); err != nil {
			t.Fatal(err)
		}
		base, deltas, floor, err := readManifest(fsys, dir)
		if err != nil {
			if !errors.Is(err, ErrManifest) {
				t.Fatalf("%v, want ErrManifest", err)
			}
			return
		}
		if err := writeManifest(fsys, dir, base, deltas, floor); err != nil {
			t.Fatal(err)
		}
		b2, d2, f2, err := readManifest(fsys, dir)
		if err != nil || b2 != base || !reflect.DeepEqual(d2, deltas) || f2 != floor {
			t.Fatalf("rewritten manifest reads (%d, %v, %d, %v), want (%d, %v, %d)",
				b2, d2, f2, err, base, deltas, floor)
		}
	})
}
