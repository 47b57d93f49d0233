package rdbms

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/rdbms/vfs"
)

// tailStream builds a real WAL byte stream — DDL, inserts whose string
// lengths need one- and two-byte uvarints, one record larger than the
// tail reader's chunk, an update and a delete — and cuts it into records
// with a plain one-shot parse, the reference the tail reader must match.
func tailStream(t testing.TB) (stream []byte, recs [][]byte) {
	t.Helper()
	mem := vfs.NewMem()
	db, err := OpenWithOptions("src", Options{FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	schema, err := NewSchema([]Column{{Name: "id", Type: TInt}, {Name: "body", Type: TString}}, "id")
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTablePartitioned("articles", schema, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 600; i++ {
		body := fmt.Sprintf("row-%d", i)
		switch {
		case i == 300:
			body = strings.Repeat("x", walTailChunk+walTailChunk/2) // outgrows the carry buffer
		case i%7 == 0:
			body = strings.Repeat("y", 200+int(i)) // length prefix takes two bytes
		}
		if _, err := tbl.Insert(Row{Int(i), String(body)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Update(Int(3), Row{Int(3), String("updated")}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Delete(Int(7)); err != nil {
		t.Fatal(err)
	}
	stream, err = mem.ReadFile("src/wal-000001.log")
	if err != nil {
		t.Fatal(err)
	}

	cr := &countingReader{r: bytes.NewReader(stream)}
	br := bufio.NewReader(cr)
	var good int64
	for {
		if _, err := readRecord(br); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("reference parse at %d: %v", good, err)
		}
		end := cr.n - int64(br.Buffered())
		recs = append(recs, stream[good:end])
		good = end
	}
	if good != int64(len(stream)) || len(recs) < 600 {
		t.Fatalf("reference parse cut %d records over %d of %d bytes", len(recs), good, len(stream))
	}
	return stream, recs
}

// tailFeed is a durable database whose first WAL segment the test appends
// to by hand, so it controls exactly which bytes a poll can see.
type tailFeed struct {
	db  *DB
	seg vfs.File
}

func newTailFeed(t testing.TB, fsys vfs.FS, dir string) *tailFeed {
	t.Helper()
	db, err := OpenWithOptions(dir, Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	seg, err := fsys.OpenAppend(dir + "/wal-000001.log")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = seg.Close() })
	return &tailFeed{db: db, seg: seg}
}

func (f *tailFeed) append(t testing.TB, b []byte) {
	t.Helper()
	if _, err := f.seg.Write(b); err != nil {
		t.Fatal(err)
	}
}

// checkEmitted fails unless got is exactly the reference records want.
func checkEmitted(t *testing.T, what string, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: emitted %d records, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: record %d differs from the segment (%d vs %d bytes)", what, i, len(got[i]), len(want[i]))
		}
	}
}

// TestWALTailAnyChunking is the tail reader's property: however the bytes
// of a record sequence reach the segment — split inside a record, inside a
// length prefix, with polls that find nothing and polls that find more
// than one read can hold — every record is emitted exactly once, in
// order, byte-identical to the segment, and the reader ends at its end.
func TestWALTailAnyChunking(t *testing.T) {
	stream, recs := tailStream(t)

	run := func(t *testing.T, cuts []int) {
		t.Helper()
		feed := newTailFeed(t, vfs.NewMem(), "feed")
		tail, err := feed.db.OpenWALTail(1, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer tail.Close()
		var got [][]byte
		emit := keepRecords(&got)
		prev := 0
		for _, cut := range append(cuts, len(stream)) {
			feed.append(t, stream[prev:cut])
			prev = cut
			before := len(got)
			k, err := tail.Poll(emit)
			if err != nil {
				t.Fatal(err)
			}
			if k != len(got)-before {
				t.Fatalf("poll reported %d records, emitted %d", k, len(got)-before)
			}
			// Everything emitted so far is a prefix of the segment that
			// ends where the reader says it stands, and every whole record
			// visible to the poll was emitted by it.
			var emitted int64
			for _, r := range got {
				emitted += int64(len(r))
			}
			if tail.off != emitted {
				t.Fatalf("after %d bytes: offset %d, emitted %d bytes", cut, tail.off, emitted)
			}
			if len(got) < len(recs) && emitted+int64(len(recs[len(got)])) <= int64(cut) {
				t.Fatalf("after %d bytes: record %d is whole in the segment but was held back", cut, len(got))
			}
		}
		checkEmitted(t, "stream", got, recs)
		if tail.off != int64(len(stream)) {
			t.Fatalf("reader stopped at %d of %d", tail.off, len(stream))
		}
		if k, err := tail.Poll(emit); err != nil || k != 0 {
			t.Fatalf("drained reader emitted %d more (err %v)", k, err)
		}
	}

	t.Run("one-append", func(t *testing.T) { run(t, nil) })
	t.Run("every-split-of-the-head", func(t *testing.T) {
		// Two appends, split at every byte of the first records: inside
		// the op byte, the table-name prefix, a value, a row count.
		head := len(recs[0]) + len(recs[1]) + len(recs[2])
		for cut := 0; cut <= head; cut++ {
			run(t, []int{cut})
		}
	})
	t.Run("inside-a-two-byte-uvarint", func(t *testing.T) {
		// recs[1] is the first insert (row 0, a 200-byte body): its body's
		// length prefix is the two bytes before the body itself.
		off := len(recs[0]) + len(recs[1]) - 200 - 1
		run(t, []int{off})
	})
	t.Run("random", func(t *testing.T) {
		for seed := int64(1); seed <= 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			var cuts []int
			for at := 0; at < len(stream); {
				var step int
				switch rng.Intn(6) {
				case 0:
					step = 0 // a poll that finds nothing new
				case 1:
					step = 1 + rng.Intn(3)
				case 2:
					step = 3*walTailChunk + rng.Intn(walTailChunk) // more than one read holds
				default:
					step = 1 + rng.Intn(2000)
				}
				at = min(at+step, len(stream))
				cuts = append(cuts, at)
			}
			run(t, cuts)
		}
	})
}

// TestWALTailResumeAtAnyBoundary: a new reader opened at any boundary an
// earlier one emitted yields exactly the suffix from there.
func TestWALTailResumeAtAnyBoundary(t *testing.T) {
	stream, recs := tailStream(t)
	feed := newTailFeed(t, vfs.NewMem(), "feed")
	feed.append(t, stream)
	var off int64
	for i := 0; i <= len(recs); i++ {
		if i%17 == 0 || i == len(recs) || i == 301 || i == 302 { // at, and just past, the oversized record
			got, end := collectRecords(t, feed.db, 1, off)
			checkEmitted(t, fmt.Sprintf("resume at record %d", i), got, recs[i:])
			if end != int64(len(stream)) {
				t.Fatalf("resume at record %d stopped at %d of %d", i, end, len(stream))
			}
		}
		if i < len(recs) {
			off += int64(len(recs[i]))
		}
	}
}

// TestWALTailPermanentTornTail: a tail that never completes is never
// emitted, is read from the file once, and costs the bytes it holds —
// polling it again and again grows nothing.
func TestWALTailPermanentTornTail(t *testing.T) {
	stream, recs := tailStream(t)
	for _, tc := range []struct {
		name string
		torn []byte
	}{
		{"small", recs[5][:len(recs[5])/2]},
		{"larger-than-the-chunk", recs[301][:len(recs[301])-1]}, // the oversized insert
	} {
		t.Run(tc.name, func(t *testing.T) {
			whole := stream[:len(recs[0])+len(recs[1])]
			feed := newTailFeed(t, vfs.NewMem(), "feed")
			feed.append(t, whole)
			feed.append(t, tc.torn)
			tail, err := feed.db.OpenWALTail(1, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer tail.Close()
			var got [][]byte
			emit := keepRecords(&got)
			if _, err := tail.Poll(emit); err != nil {
				t.Fatal(err)
			}
			checkEmitted(t, "before the tear", got, recs[:2])
			held, size := cap(tail.carry), len(whole)+len(tc.torn)
			if len(tail.carry) != len(tc.torn) {
				t.Fatalf("carry holds %d bytes, the torn tail is %d", len(tail.carry), len(tc.torn))
			}
			if held > max(walTailChunk, 2*size) {
				t.Fatalf("carry buffer %d bytes for a %d-byte segment", held, size)
			}
			for i := 0; i < 1000; i++ {
				if k, err := tail.Poll(emit); err != nil || k != 0 {
					t.Fatalf("poll %d emitted %d from a torn tail (err %v)", i, k, err)
				}
			}
			if tail.off != int64(len(whole)) || len(got) != 2 {
				t.Fatalf("torn tail moved the reader: offset %d, %d records", tail.off, len(got))
			}
			if cap(tail.carry) != held || len(tail.carry) != len(tc.torn) {
				t.Fatalf("carry grew under idle polls: cap %d → %d, len %d", held, cap(tail.carry), len(tail.carry))
			}
		})
	}
}

// TestWALTailRefusedRecordIsOfferedAgain: an emit error stops the poll at
// the refused record; the next poll offers it and what follows, once.
func TestWALTailRefusedRecordIsOfferedAgain(t *testing.T) {
	stream, recs := tailStream(t)
	feed := newTailFeed(t, vfs.NewMem(), "feed")
	feed.append(t, stream)
	tail, err := feed.db.OpenWALTail(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	var got [][]byte
	keep := keepRecords(&got)
	refuse := fmt.Errorf("follower gone")
	k, err := tail.Poll(func(rec []byte) error {
		if len(got) == 10 {
			return refuse
		}
		return keep(rec)
	})
	if err != refuse || k != 10 {
		t.Fatalf("poll returned %d, %v; want 10 and the emit error", k, err)
	}
	if _, err := tail.Poll(keep); err != nil {
		t.Fatal(err)
	}
	checkEmitted(t, "after a refusal", got, recs)
}

// TestWALTailRotation drives a tail reader the way Source.ServeWAL does
// across real checkpoints: the rotated segment is drained to its last
// record, then the reader continues at the start of the next one, and the
// records it emitted rebuild the table.
func TestWALTailRotation(t *testing.T) {
	mem := vfs.NewMem()
	db, tbl := replFixture(t, mem, Options{})
	db.HoldWAL("f", 1) // what ServeWAL does: keep rotated segments until shipped
	tail, err := db.OpenWALTail(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()

	var got [][]byte
	keep := keepRecords(&got)
	perSeg := map[int]int64{}
	emit := func(rec []byte) error {
		perSeg[tail.seq] += int64(len(rec))
		return keep(rec)
	}
	// step is one turn of the ServeWAL loop; it reports whether the reader
	// is caught up with the segment being appended to.
	step := func() bool {
		cur := db.CurrentWALSegment()
		k, err := tail.Poll(emit)
		if err != nil {
			t.Fatal(err)
		}
		if k == 0 && cur > tail.seq {
			if err := tail.Next(); err != nil {
				t.Fatal(err)
			}
			return false
		}
		return k == 0
	}

	mustInsert(t, tbl, 0, 10)
	step() // mid-segment: some of segment 1 shipped before it rotates
	mustInsert(t, tbl, 10, 20)
	if _, err := db.Checkpoint(); err != nil { // rotates 1 → 2
		t.Fatal(err)
	}
	mustInsert(t, tbl, 20, 30)
	if _, err := db.Checkpoint(); err != nil { // rotates 2 → 3 before 2 was read at all
		t.Fatal(err)
	}
	mustInsert(t, tbl, 30, 40)
	for !step() {
	}

	if tail.seq != 3 {
		t.Fatalf("reader ended in segment %d, want 3", tail.seq)
	}
	for seq := 1; seq <= 3; seq++ {
		size, err := db.WALSegmentSize(seq)
		if err != nil {
			t.Fatal(err)
		}
		if perSeg[seq] != size {
			t.Fatalf("segment %d: shipped %d of %d bytes", seq, perSeg[seq], size)
		}
	}
	follower := NewDB()
	for i, rec := range got {
		if err := follower.ApplyReplRecord(rec); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	ftbl, err := follower.Table("articles")
	if err != nil {
		t.Fatal(err)
	}
	if !rowsIdentical(tableRows(ftbl), tableRows(tbl)) {
		t.Fatal("follower diverged across rotations")
	}
}

// TestWALTailIdlePollAllocatesNothing: a poll that finds nothing appended
// is one positioned read and no allocation, on a real file and in memory,
// whether the reader sits at a clean boundary or behind a torn tail.
func TestWALTailIdlePollAllocatesNothing(t *testing.T) {
	stream, recs := tailStream(t)
	for _, name := range []string{"os", "mem"} {
		for _, torn := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/torn=%v", name, torn), func(t *testing.T) {
				var fsys vfs.FS = vfs.NewMem()
				dir := "feed"
				if name == "os" {
					fsys, dir = vfs.NewOS(), t.TempDir()
				}
				feed := newTailFeed(t, fsys, dir)
				feed.append(t, stream)
				if torn {
					feed.append(t, recs[5][:len(recs[5])/2])
				}
				tail, err := feed.db.OpenWALTail(1, 0)
				if err != nil {
					t.Fatal(err)
				}
				defer tail.Close()
				emitted := 0
				emit := func([]byte) error { emitted++; return nil }
				if _, err := tail.Poll(emit); err != nil || emitted != len(recs) {
					t.Fatalf("drain: %d records, err %v", emitted, err)
				}
				allocs := testing.AllocsPerRun(1000, func() {
					if k, err := tail.Poll(emit); err != nil || k != 0 {
						t.Fatalf("idle poll emitted %d (err %v)", k, err)
					}
				})
				if allocs != 0 {
					t.Fatalf("idle poll allocates %.1f objects, want 0", allocs)
				}
			})
		}
	}
}

// reactionRecord returns the replicated encoding of one upsert the size
// the replica_mixed workload ships (≈ 280 bytes), and a follower that
// already has the table.
func reactionRecord(t testing.TB) (*DB, []byte) {
	t.Helper()
	mem := vfs.NewMem()
	db, err := OpenWithOptions("data", Options{FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	schema, err := NewSchema([]Column{
		{Name: "post_id", Type: TString},
		{Name: "article_url", Type: TString},
		{Name: "user_id", Type: TString},
		{Name: "kind", Type: TString},
		{Name: "text", Type: TString},
		{Name: "likes", Type: TInt},
		{Name: "stance", Type: TFloat},
	}, "post_id")
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTablePartitioned("reactions", schema, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Upsert(Row{
		String("post-00012345"),
		String("https://excellent-1.example/2020/03/14/vaccine-trial-results-explained"),
		String("user-004217"),
		String("reply"),
		String(strings.Repeat("a measured reply quoting the study ", 4)),
		Int(17),
		Float(0.25),
	}); err != nil {
		t.Fatal(err)
	}
	var recs [][]byte
	tail, err := db.OpenWALTail(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	if _, err := tail.Poll(keepRecords(&recs)); err != nil || len(recs) != 2 {
		t.Fatalf("fixture WAL: %d records, err %v", len(recs), err)
	}
	follower := NewDB()
	if err := follower.ApplyReplRecord(recs[0]); err != nil { // the CREATE TABLE
		t.Fatal(err)
	}
	if n := len(recs[1]); n < 200 || n > 400 {
		t.Fatalf("fixture record is %d bytes, want reaction-sized", n)
	}
	return follower, recs[1]
}

// TestApplyReplRecordAllocBound: applying a reaction-sized record costs
// what the row holds — no per-record reader or buffer. The bound is on
// bytes, not objects: one 4 KiB buffer per record would break it.
func TestApplyReplRecordAllocBound(t *testing.T) {
	follower, rec := reactionRecord(t)
	apply := func() {
		if err := follower.ApplyReplRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	apply() // the pool's decoder exists from here on

	// With the collector off the pool keeps its decoder, so the figure
	// is what apply itself allocates.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		apply()
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("ApplyReplRecord(%d-byte record): %d B/op, %d allocs/op", len(rec), perOp, (after.Mallocs-before.Mallocs)/runs)
	if perOp >= 4096 {
		t.Fatalf("ApplyReplRecord allocates %d B per %d-byte record, want < 4096", perOp, len(rec))
	}
}
