package rdbms

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rdbms/vfs"
)

// BenchmarkCheckpointIncremental compares a full checkpoint against delta
// checkpoints at several dirty ratios over the same corpus: the issue's
// acceptance bar is a 10%-dirty delta costing <50% of a full checkpoint.
// Each iteration dirties the configured number of partitions (one row
// mutated per stripe, off the clock) and then times Checkpoint itself;
// the full case runs with DeltaLimit<0, which forces every checkpoint to
// re-serialise the whole store — the pre-incremental behaviour.
func BenchmarkCheckpointIncremental(b *testing.B) {
	const parts = 32
	const rows = 1 << 14
	cases := []struct {
		name  string
		dirty int // partitions dirtied per iteration
		full  bool
	}{
		{"full", parts, true},
		{"dirty-50pct", parts / 2, false},
		{"dirty-10pct", 3, false}, // 3/32 ≈ 9.4%
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			limit := 1 << 30 // delta cases: never compact mid-benchmark
			if c.full {
				limit = -1
			}
			db, err := OpenWithOptions(b.TempDir(), Options{Partitions: parts, DeltaLimit: limit})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			tbl, err := db.CreateTable("bench", benchSchema(b))
			if err != nil {
				b.Fatal(err)
			}
			// One representative pk per partition to dirty stripes with.
			rep := make(map[int]int64, parts)
			for i := int64(0); i < rows; i++ {
				if _, err := tbl.Insert(benchRow(i)); err != nil {
					b.Fatal(err)
				}
				if pi := tbl.partFor(Int(i)); rep[pi] == 0 {
					rep[pi] = i
				}
			}
			if _, err := db.Checkpoint(); err != nil { // base generation
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				touched := 0
				for pi := 0; pi < parts && touched < c.dirty; pi++ {
					id, ok := rep[pi]
					if !ok {
						continue
					}
					if err := tbl.Mutate(Int(id), func(r Row) (Row, error) {
						r[3] = Float(r[3].Float() + 1)
						return r, nil
					}); err != nil {
						b.Fatal(err)
					}
					touched++
				}
				b.StartTimer()
				st, err := db.Checkpoint()
				if err != nil {
					b.Fatal(err)
				}
				if want := c.dirty; !c.full && st.PartitionsWritten != want {
					b.Fatalf("delta wrote %d partitions, want %d", st.PartitionsWritten, want)
				}
			}
		})
	}
}

// BenchmarkWALAppendFsync measures per-append cost across the fsync
// policies under a single writer (the always case pays one fsync per
// record here; concurrent writers amortise it via group commit — see
// BenchmarkWALGroupCommit).
func BenchmarkWALAppendFsync(b *testing.B) {
	for _, policy := range []string{"checkpoint", "interval:25ms", "always"} {
		b.Run(policy, func(b *testing.B) {
			p, d, err := ParseFsyncPolicy(policy)
			if err != nil {
				b.Fatal(err)
			}
			db, err := OpenWithOptions(b.TempDir(), Options{Fsync: p, FsyncInterval: d})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			tbl, err := db.CreateTable("bench", benchSchema(b))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tbl.Insert(benchRow(int64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWALGroupCommit drives parallel writers under FsyncAlways: the
// flusher batches concurrently parked appenders onto one fsync, so
// per-op cost falls well below the single-writer fsync price as
// parallelism grows.
func BenchmarkWALGroupCommit(b *testing.B) {
	db, err := OpenWithOptions(b.TempDir(), Options{Fsync: FsyncAlways})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("bench", benchSchema(b))
	if err != nil {
		b.Fatal(err)
	}
	var seq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := tbl.Insert(benchRow(seq.Add(1))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	fsyncs, recs := db.wal.FsyncStats()
	if fsyncs > 0 {
		b.ReportMetric(float64(recs)/float64(fsyncs), "records/fsync")
	}
}

func benchSchema(b *testing.B) *Schema {
	b.Helper()
	s, err := NewSchema([]Column{
		{Name: "id", Type: TInt},
		{Name: "outlet", Type: TString, NotNull: true},
		{Name: "title", Type: TString},
		{Name: "score", Type: TFloat},
	}, "id")
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func benchRow(id int64) Row {
	return Row{Int(id), String("outlet"), String("title"), Float(0)}
}

// BenchmarkConcurrentTable drives a mixed Get/Mutate workload from
// parallel goroutines against tables with increasing partition counts.
// parts-1 is the single-lock baseline this PR replaces: every reader and
// writer serialised on one RWMutex. With lock striping, operations on
// different keys proceed in parallel and throughput scales with the
// stripe count on multi-core runners.
func BenchmarkConcurrentTable(b *testing.B) {
	const rows = 8192
	for _, parts := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("parts-%d", parts), func(b *testing.B) {
			db := NewDBWithOptions(Options{Partitions: parts})
			tbl, err := db.CreateTable("bench", benchSchema(b))
			if err != nil {
				b.Fatal(err)
			}
			for i := int64(0); i < rows; i++ {
				if _, err := tbl.Insert(benchRow(i)); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					id := Int(int64(i*31) % rows)
					if i%5 == 0 {
						// 20% writes: the aggregate-bump shape of the
						// platform's reaction ingestion.
						if err := tbl.Mutate(id, func(r Row) (Row, error) {
							r[3] = Float(r[3].Float() + 1)
							return r, nil
						}); err != nil {
							b.Fatal(err)
						}
					} else {
						if _, err := tbl.Get(id); err != nil {
							b.Fatal(err)
						}
					}
					i++
				}
			})
		})
	}
}

// BenchmarkConcurrentTableInsert measures pure insert throughput under
// parallel writers (disjoint keys) across the partition sweep.
func BenchmarkConcurrentTableInsert(b *testing.B) {
	for _, parts := range []int{1, 8} {
		b.Run(fmt.Sprintf("parts-%d", parts), func(b *testing.B) {
			db := NewDBWithOptions(Options{Partitions: parts})
			tbl, err := db.CreateTable("bench", benchSchema(b))
			if err != nil {
				b.Fatal(err)
			}
			var seq atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := tbl.Insert(benchRow(seq.Add(1))); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkCheckpoint measures one full online checkpoint — WAL rotation,
// whole-store generation with per-table barriers, atomic install, segment
// prune — over a populated durable store. DeltaLimit < 0 forces every
// checkpoint to be full; BenchmarkCheckpointIncremental covers the delta
// path.
func BenchmarkCheckpoint(b *testing.B) {
	const rows = 8192
	dir := b.TempDir()
	db, err := OpenWithOptions(dir, Options{DeltaLimit: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("bench", benchSchema(b))
	if err != nil {
		b.Fatal(err)
	}
	if err := tbl.CreateIndex("outlet", HashIndex); err != nil {
		b.Fatal(err)
	}
	for i := int64(0); i < rows; i++ {
		if _, err := tbl.Insert(benchRow(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := db.Checkpoint()
		if err != nil {
			b.Fatal(err)
		}
		if st.Rows != rows {
			b.Fatalf("snapshot rows: %d", st.Rows)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(rows)/b.Elapsed().Seconds()*float64(b.N), "rows_snapshotted/s")
}

// BenchmarkWALAppend measures the per-mutation WAL overhead: the same
// insert workload against an in-memory table and a durable one.
func BenchmarkWALAppend(b *testing.B) {
	run := func(b *testing.B, db *DB) {
		tbl, err := db.CreateTable("bench", benchSchema(b))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tbl.Insert(benchRow(int64(i))); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("in-memory", func(b *testing.B) {
		run(b, NewDB())
	})
	b.Run("durable", func(b *testing.B) {
		db, err := Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		run(b, db)
	})
}

// BenchmarkWALTailPoll measures one poll of a follower stream's tail
// reader on a real file, positioned at the end of a segment that already
// holds 64 KiB or 8 MiB: idle (nothing appended since the last poll — what
// a caught-up follower costs the primary every 5 ms) and with 64
// reaction-sized records appended (the append is inside the timed loop;
// it is the same write at both sizes). The cost must not depend on the
// segment's size: a poll reads what is new, not what is there.
func BenchmarkWALTailPoll(b *testing.B) {
	_, rec := reactionRecord(b)
	batch := bytes.Repeat(rec, 64)
	for _, size := range []int{64 << 10, 8 << 20} {
		for _, appended := range []int{0, 64} {
			b.Run(fmt.Sprintf("seg-%dKiB/appended-%d", size>>10, appended), func(b *testing.B) {
				feed := newTailFeed(b, vfs.NewOS(), b.TempDir())
				feed.append(b, bytes.Repeat(rec, size/len(rec)))
				end, err := feed.db.WALSegmentSize(1)
				if err != nil {
					b.Fatal(err)
				}
				tail, err := feed.db.OpenWALTail(1, end)
				if err != nil {
					b.Fatal(err)
				}
				defer tail.Close()
				emit := func([]byte) error { return nil }
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if appended > 0 {
						feed.append(b, batch)
					}
					if k, err := tail.Poll(emit); err != nil || k != appended {
						b.Fatalf("poll emitted %d records, want %d (err %v)", k, appended, err)
					}
				}
			})
		}
	}
}

// BenchmarkApplyReplRecord measures the follower's per-record apply of a
// reaction-sized upsert: decode through the pooled reader, loose apply.
func BenchmarkApplyReplRecord(b *testing.B) {
	follower, rec := reactionRecord(b)
	b.SetBytes(int64(len(rec)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := follower.ApplyReplRecord(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// footprintTables mirrors the four hot-store tables core.createSchemas
// declares — column kinds, indexes and the shape of the stored strings —
// so the figure moves when the row or index representation does. (This
// package cannot import core; a column added there should be added here.)
type footprintSpec struct {
	name    string
	cols    []Column
	pk      string
	hash    []string
	ordered []string
	row     func(i int) Row
	budget  float64 // live B/row TestTableFootprintBudget allows
}

var footprintTables = []footprintSpec{
	{
		name: "articles", pk: "id", hash: []string{"url", "outlet_id"}, ordered: []string{"published"}, budget: 600,
		cols: []Column{
			{Name: "id", Type: TString}, {Name: "outlet_id", Type: TString, NotNull: true},
			{Name: "rating", Type: TInt, NotNull: true}, {Name: "url", Type: TString, NotNull: true},
			{Name: "title", Type: TString}, {Name: "published", Type: TTime, NotNull: true},
			{Name: "clickbait", Type: TFloat}, {Name: "subjectivity", Type: TFloat},
			{Name: "reading_grade", Type: TFloat}, {Name: "has_byline", Type: TBool},
			{Name: "internal_refs", Type: TInt}, {Name: "external_refs", Type: TInt},
			{Name: "sci_refs", Type: TInt}, {Name: "sci_ratio", Type: TFloat},
			{Name: "has_refs", Type: TBool}, {Name: "is_topic", Type: TBool},
			{Name: "composite", Type: TFloat}, {Name: "model_gen", Type: TInt, NotNull: true},
		},
		row: func(i int) Row {
			return Row{
				String(fmt.Sprintf("art-%06d", i)), String(fmt.Sprintf("outlet-%03d", i%200)),
				Int(int64(i % 5)), String(fmt.Sprintf("https://good-%d.example/news/story-%06d", i%200, i)),
				String(fmt.Sprintf("Study %d finds what studies find", i)),
				Time(time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Minute)),
				Float(0.25), Float(0.5), Float(11.5), Bool(i%2 == 0),
				Int(3), Int(4), Int(1), Float(0.2), Bool(true), Bool(i%3 == 0),
				Float(0.61), Int(1),
			}
		},
	},
	{
		name: "article_social", pk: "article_id", budget: 205,
		cols: []Column{
			{Name: "article_id", Type: TString}, {Name: "reactions", Type: TInt},
			{Name: "replies", Type: TInt}, {Name: "reshares", Type: TInt}, {Name: "likes", Type: TInt},
			{Name: "support", Type: TInt}, {Name: "deny", Type: TInt}, {Name: "comment", Type: TInt},
		},
		row: func(i int) Row {
			return Row{String(fmt.Sprintf("art-%06d", i)), Int(9), Int(4), Int(3), Int(2), Int(2), Int(1), Int(1)}
		},
	},
	{
		name: "replies", pk: "id", hash: []string{"article_id"}, budget: 237,
		cols: []Column{
			{Name: "id", Type: TString}, {Name: "article_id", Type: TString, NotNull: true},
			{Name: "text", Type: TString}, {Name: "stance", Type: TString},
		},
		row: func(i int) Row {
			return Row{
				String(fmt.Sprintf("post-%07d", i)), String(fmt.Sprintf("art-%06d", i/9)),
				String(fmt.Sprintf("reply %d: not sure the study supports the headline", i)), String("comment"),
			}
		},
	},
	{
		name: "article_docs", pk: "id", budget: 223,
		cols: []Column{
			{Name: "id", Type: TString}, {Name: "url", Type: TString, NotNull: true},
			{Name: "html", Type: TString, NotNull: true},
		},
		row: func(i int) Row {
			return Row{
				String(fmt.Sprintf("art-%06d", i)),
				String(fmt.Sprintf("https://good-%d.example/news/story-%06d", i%200, i)),
				String(fmt.Sprintf("<html><body><p>story %06d</p></body></html>", i)),
			}
		},
	},
}

// tableFootprint loads rows rows of spec into a fresh table and returns
// the live heap one of them costs, indexes and string payload included:
// HeapAlloc after a forced collection, table loaded minus table absent,
// over the row count.
func tableFootprint(tb testing.TB, spec footprintSpec, rows int) float64 {
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC() // the first cycle may only have finished a sweep
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	schema, err := NewSchema(spec.cols, spec.pk)
	if err != nil {
		tb.Fatal(err)
	}
	before := liveHeap()
	tbl, err := NewDB().CreateTable(spec.name, schema)
	if err != nil {
		tb.Fatal(err)
	}
	for _, col := range spec.hash {
		if err := tbl.CreateIndex(col, HashIndex); err != nil {
			tb.Fatal(err)
		}
	}
	for _, col := range spec.ordered {
		if err := tbl.CreateIndex(col, OrderedIndex); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < rows; i++ {
		if _, err := tbl.Insert(spec.row(i)); err != nil {
			tb.Fatal(err)
		}
	}
	after := liveHeap()
	runtime.KeepAlive(tbl)
	return float64(after-before) / float64(rows)
}

const footprintRows = 20000

// BenchmarkTableFootprint reports the live heap one stored row costs in
// each of the platform's four tables. It is a size, not a speed — run it
// with -benchtime=1x; ns/op is the load time and means little.
func BenchmarkTableFootprint(b *testing.B) {
	for n := 0; n < b.N; n++ {
		for _, spec := range footprintTables {
			b.ReportMetric(tableFootprint(b, spec, footprintRows), spec.name+"-B/row")
		}
	}
}

// TestTableFootprintBudget turns the benchmark's printout into a guard:
// bytes per stored row is the operator's capacity number. A second copy of
// a key in an index (removing one took 1 148 / 413 / 473 / 349 B/row to
// 923 / 318 / 283 / 254) or a cell back at 32 bytes (halving it took them
// to 555 / 190 / 220 / 206) costs more than the ≈ 8 % of slack these
// budgets leave.
func TestTableFootprintBudget(t *testing.T) {
	for _, spec := range footprintTables {
		got := tableFootprint(t, spec, footprintRows)
		t.Logf("%s: %.1f B/row live, budget %v", spec.name, got, spec.budget)
		if got > spec.budget {
			t.Errorf("%s is over its budget", spec.name)
		}
	}
}
