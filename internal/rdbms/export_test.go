package rdbms

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/rdbms/vfs"
)

// exportDir is where the export tests write, one level below a parent
// the export must create itself.
const exportDir = "wh/2020-02-10"

// exportSource builds a store of three tables: "articles" (3 stripes, a
// hash and an ordered index, a NULL cell), "social" (1 stripe) and
// "other", which the tests leave out of the export.
func exportSource(t *testing.T) *DB {
	t.Helper()
	db := NewDBWithOptions(Options{Partitions: 3})
	articles, err := db.CreateTable("articles", articleSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := articles.CreateIndex("outlet", HashIndex); err != nil {
		t.Fatal(err)
	}
	if err := articles.CreateIndex("published", OrderedIndex); err != nil {
		t.Fatal(err)
	}
	social, err := db.CreateTablePartitioned("social", mustSchema(t, "article_id"), 1)
	if err != nil {
		t.Fatal(err)
	}
	other, err := db.CreateTable("other", mustSchema(t, "article_id"))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 24; i++ {
		row := articleRow(i, fmt.Sprintf("outlet-%d", i%4), fmt.Sprintf("title %d", i), float64(i)/8)
		if i == 5 {
			row[2] = Null()
		}
		if _, err := articles.Insert(row); err != nil {
			t.Fatal(err)
		}
		if _, err := social.Insert(Row{String(fmt.Sprintf("s-%d", i)), Int(i)}); err != nil {
			t.Fatal(err)
		}
		if _, err := other.Insert(Row{String(fmt.Sprintf("o-%d", i)), Int(-i)}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// exportedStates is what an import of articles+social must reproduce.
func exportedStates(src *DB) map[string]tableState {
	want := tableStates(src)
	delete(want, "other")
	return want
}

func TestExportImportRoundTrip(t *testing.T) {
	src := exportSource(t)
	fsys := vfs.NewMem()
	rows, err := src.ExportTables(fsys, exportDir, "articles", "social")
	if err != nil {
		t.Fatal(err)
	}
	if rows != 48 {
		t.Errorf("exported %d rows, want 48", rows)
	}
	got, n, err := ImportTables(fsys, exportDir)
	if err != nil {
		t.Fatal(err)
	}
	if n != rows {
		t.Errorf("imported %d rows, exported %d", n, rows)
	}
	if want := exportedStates(src); !reflect.DeepEqual(tableStates(got), want) {
		t.Errorf("import diverged:\n got %+v\nwant %+v", tableStates(got), want)
	}
	if _, err := fsys.Stat(exportDir + ".tmp"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("staging directory left behind: %v", err)
	}

	// The same directory is never written twice.
	if _, err := src.ExportTables(fsys, exportDir, "articles"); !errors.Is(err, ErrExists) {
		t.Errorf("second export to one dir: %v, want ErrExists", err)
	}
	if _, _, err := ImportTables(fsys, "wh/2020-02-11"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing export: %v, want fs.ErrNotExist", err)
	}
	if _, err := src.ExportTables(fsys, "wh/2020-02-12", "articles", "nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown table: %v, want ErrNotFound", err)
	}
	if _, err := fsys.Stat("wh/2020-02-12"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("failed export left a directory: %v", err)
	}
}

// TestExportInvisibleToCheckpoints exports from a durable store with dirty
// stripes: the export must leave them dirty, or the next checkpoint's delta
// would skip rows only the WAL holds.
func TestExportInvisibleToCheckpoints(t *testing.T) {
	fsys := vfs.NewMem()
	db, err := OpenWithOptions("data", Options{FS: fsys, Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("articles", articleSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 12; i++ {
		if _, err := tbl.Insert(articleRow(i, "o", "t", 1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := int64(12); i < 14; i++ {
		if _, err := tbl.Insert(articleRow(i, "o", "t", 1)); err != nil {
			t.Fatal(err)
		}
	}
	dirty := tbl.dirtyParts()
	if dirty == 0 {
		t.Fatal("no dirty stripe to watch")
	}
	if _, err := db.ExportTables(fsys, filepath.Join("data", "warehouse", "d"), "articles"); err != nil {
		t.Fatal(err)
	}
	if got := tbl.dirtyParts(); got != dirty {
		t.Errorf("dirty stripes %d after export, %d before", got, dirty)
	}
	st, err := db.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if st.PartitionsWritten != dirty {
		t.Errorf("checkpoint after export wrote %d stripes, want %d", st.PartitionsWritten, dirty)
	}
}

// TestExportCrashAtEveryBoundary power-cuts an export at each of its sync
// and rename boundaries. After the cut the day is either all there — every
// table equal to the source — or absent (fs.ErrNotExist), and then a rerun
// of the export succeeds. An export that reported success must survive.
func TestExportCrashAtEveryBoundary(t *testing.T) {
	src := exportSource(t)
	names := []string{"articles", "social"}
	want := exportedStates(src)

	probe := vfs.NewFault(vfs.NewMem())
	if _, err := src.ExportTables(probe, exportDir, names...); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	// tables.dat Sync, SyncDir(tmp), Rename, SyncDir(parent).
	n := probe.Boundaries()
	if n != 4 {
		t.Fatalf("export crosses %d boundaries, want 4", n)
	}
	for k := 1; k <= n; k++ {
		t.Run(fmt.Sprintf("boundary-%d-of-%d", k, n), func(t *testing.T) {
			mem := vfs.NewMem()
			fault := vfs.NewFault(mem)
			fault.CrashAtBoundary(k)
			_, exportErr := src.ExportTables(fault, exportDir, names...)
			if !fault.Crashed() {
				t.Fatalf("cut never fired (export: %v)", exportErr)
			}
			mem.PowerCut()

			got, _, err := ImportTables(mem, exportDir)
			switch {
			case err == nil:
			case errors.Is(err, fs.ErrNotExist) && exportErr != nil:
				if _, err := src.ExportTables(mem, exportDir, names...); err != nil {
					t.Fatalf("rerun after the cut: %v", err)
				}
				if got, _, err = ImportTables(mem, exportDir); err != nil {
					t.Fatalf("import after the rerun: %v", err)
				}
			default:
				t.Fatalf("import after the cut: %v (export returned %v)", err, exportErr)
			}
			if !reflect.DeepEqual(tableStates(got), want) {
				t.Fatalf("partial day:\n got %+v\nwant %+v", tableStates(got), want)
			}
		})
	}
}

// TestImportTruncatedExport cuts tables.dat at every length short of the
// whole file: each prefix must fail with ErrCorrupt, never import part of
// a day.
func TestImportTruncatedExport(t *testing.T) {
	fsys := vfs.NewMem()
	if _, err := exportSource(t).ExportTables(fsys, exportDir, "articles", "social"); err != nil {
		t.Fatal(err)
	}
	data, err := fsys.ReadFile(filepath.Join(exportDir, genDataFile))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut++ {
		dir := fmt.Sprintf("cut/%d", cut)
		if err := fsys.MkdirAll(dir); err != nil {
			t.Fatal(err)
		}
		f, err := fsys.Create(filepath.Join(dir, genDataFile))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(data[:cut]); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if _, _, err := ImportTables(fsys, dir); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("tables.dat cut to %d of %d bytes: %v, want ErrCorrupt", cut, len(data), err)
		}
	}
}
