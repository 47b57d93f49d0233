package rdbms

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
)

// dumpRows collects every live row of a table, sorted by primary key, so
// two tables with different partition layouts can be compared logically.
func dumpRows(t *testing.T, tbl *Table) []Row {
	t.Helper()
	var out []Row
	tbl.Scan(func(r Row) bool {
		out = append(out, r)
		return true
	})
	pk := tbl.Schema().PK
	sort.Slice(out, func(i, j int) bool {
		c, err := out[i][pk].Compare(out[j][pk])
		return err == nil && c < 0
	})
	return out
}

// rowsIdentical reports whether a and b hold the same rows in the same
// order, each Row.Identical to its partner.
func rowsIdentical(a, b []Row) bool { return slices.EqualFunc(a, b, Row.Identical) }

// dumpsIdentical compares two dumpDB results table by table.
func dumpsIdentical(a, b map[string][]Row) bool { return maps.EqualFunc(a, b, rowsIdentical) }

// partFor routes a primary-key value to its partition index.
func (t *Table) partFor(pk Value) int { return t.partForKey(pk.hash32()) }

func partitionedArticleTable(t *testing.T, parts int) *Table {
	t.Helper()
	db := NewDBWithOptions(Options{Partitions: parts})
	tbl, err := db.CreateTable("articles", articleSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestPartitionedEquivalence drives the same mixed workload — inserts,
// updates, upserts, mutates, deletes, re-keys — through a single-lock
// table (P=1) and partitioned tables, and requires logically identical
// contents and query results. This is the pin for the lock-striping
// refactor: partitioning must be invisible through the API.
func TestPartitionedEquivalence(t *testing.T) {
	workload := func(tbl *Table) {
		tbl.CreateIndex("outlet", HashIndex)
		tbl.CreateIndex("score", OrderedIndex)
		for i := int64(0); i < 200; i++ {
			if _, err := tbl.Insert(articleRow(i, fmt.Sprintf("outlet-%d", i%7), fmt.Sprintf("t%d", i), float64(i%13))); err != nil {
				t.Fatal(err)
			}
		}
		for i := int64(0); i < 200; i += 3 {
			if err := update(tbl, Int(i), articleRow(i, fmt.Sprintf("outlet-%d", i%5), "updated", float64(i%11))); err != nil {
				t.Fatal(err)
			}
		}
		for i := int64(0); i < 200; i += 5 {
			if err := tbl.Delete(Int(i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := int64(1); i < 200; i += 4 {
			if err := tbl.Upsert(articleRow(i, "upserted", "u", 0.5)); err != nil {
				t.Fatal(err)
			}
		}
		for i := int64(2); i < 200; i += 6 {
			err := tbl.Mutate(Int(i), func(r Row) (Row, error) {
				r[3] = Float(r[3].Float() + 100)
				return r, nil
			})
			if err != nil && !errors.Is(err, ErrNotFound) {
				t.Fatal(err)
			}
		}
		// Re-keys as delete + insert, many of them across partitions.
		for i := int64(7); i < 50; i += 7 {
			if err := tbl.Delete(Int(i)); errors.Is(err, ErrNotFound) {
				continue
			} else if err != nil {
				t.Fatal(err)
			}
			if _, err := tbl.Insert(articleRow(i+1000, "moved", "m", 1)); err != nil {
				t.Fatal(err)
			}
		}
	}

	base := partitionedArticleTable(t, 1)
	workload(base)
	want := dumpRows(t, base)

	for _, parts := range []int{2, 4, 8, 16} {
		t.Run(fmt.Sprintf("parts-%d", parts), func(t *testing.T) {
			tbl := partitionedArticleTable(t, parts)
			if tbl.Partitions() != parts {
				t.Fatalf("partitions: %d", tbl.Partitions())
			}
			workload(tbl)
			got := dumpRows(t, tbl)
			if !rowsIdentical(want, got) {
				t.Fatalf("partitioned table diverged from single-lock table:\nwant %d rows\ngot  %d rows", len(want), len(got))
			}
			// Secondary-index lookups match too.
			wantIdx, err := lookupEq(base, "outlet", String("upserted"))
			if err != nil {
				t.Fatal(err)
			}
			gotIdx, err := lookupEq(tbl, "outlet", String("upserted"))
			if err != nil {
				t.Fatal(err)
			}
			if len(wantIdx) != len(gotIdx) {
				t.Fatalf("index lookup: %d vs %d rows", len(wantIdx), len(gotIdx))
			}
			// Merged ordered range scans return the same ascending stream.
			lo, hi := Float(2), Float(110)
			var wantRange, gotRange []float64
			base.Range("score", &lo, &hi, func(r Row) bool {
				wantRange = append(wantRange, r[3].Float())
				return true
			})
			tbl.Range("score", &lo, &hi, func(r Row) bool {
				gotRange = append(gotRange, r[3].Float())
				return true
			})
			if !reflect.DeepEqual(wantRange, gotRange) {
				t.Fatalf("range diverged:\nwant %v\ngot  %v", wantRange, gotRange)
			}
		})
	}
}

// TestMergedRangeAscendingAcrossPartitions pins the k-way merge: values
// interleave across partitions and must come back globally ascending.
func TestMergedRangeAscendingAcrossPartitions(t *testing.T) {
	tbl := partitionedArticleTable(t, 8)
	tbl.CreateIndex("score", OrderedIndex)
	for i := int64(0); i < 300; i++ {
		tbl.Insert(articleRow(i, "o", "t", float64((i*37)%300)))
	}
	var prev float64 = -1
	n := 0
	tbl.Range("score", nil, nil, func(r Row) bool {
		v := r[3].Float()
		if v < prev {
			t.Fatalf("merged range not ascending: %v after %v", v, prev)
		}
		prev = v
		n++
		return true
	})
	if n != 300 {
		t.Fatalf("range rows: %d", n)
	}
	// Early stop works mid-merge.
	n = 0
	tbl.Range("score", nil, nil, func(Row) bool { n++; return n < 10 })
	if n != 10 {
		t.Fatalf("early stop: %d", n)
	}
	// Bounds honoured.
	lo, hi := Float(50), Float(59)
	n = 0
	tbl.Range("score", &lo, &hi, func(r Row) bool {
		if r[3].Float() < 50 || r[3].Float() > 59 {
			t.Fatalf("out of bounds: %v", r[3])
		}
		n++
		return true
	})
	if n != 10 {
		t.Fatalf("bounded rows: %d", n)
	}
}

// TestCrossPartitionPKMove: updates whose new key hashes to another
// stripe are refused like any key change, and leave every row and the
// secondary index where they were.
func TestCrossPartitionPKMove(t *testing.T) {
	tbl := partitionedArticleTable(t, 8)
	if err := tbl.CreateIndex("outlet", HashIndex); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 64; i++ {
		if _, err := tbl.Insert(articleRow(i, "o", "t", float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	before := dumpRows(t, tbl)
	cross := 0
	for i := int64(0); i < 64; i++ {
		if tbl.partFor(Int(i)) != tbl.partFor(Int(i+1000)) {
			cross++
		}
		if err := update(tbl, Int(i), articleRow(i+1000, "o", "moved", float64(i))); !errors.Is(err, ErrSchema) {
			t.Fatalf("move %d: %v, want ErrSchema", i, err)
		}
	}
	if cross == 0 {
		t.Fatal("fixture: no move crosses stripes")
	}
	// Moving onto an existing key in another stripe is refused the same way.
	for i := int64(1); i < 64; i++ {
		if tbl.partFor(Int(i)) != tbl.partFor(Int(0)) {
			if err := update(tbl, Int(0), articleRow(i, "o", "clash", 0)); !errors.Is(err, ErrSchema) {
				t.Fatalf("cross-partition clash 0 -> %d: %v", i, err)
			}
			break
		}
	}
	if !rowsIdentical(before, dumpRows(t, tbl)) {
		t.Fatal("refused moves changed the table")
	}
	rows, err := lookupEq(tbl, "outlet", String("o"))
	if err != nil || len(rows) != 64 {
		t.Fatalf("index after refused moves: %d %v", len(rows), err)
	}
}

// TestMutateRefusesKeyChange: a row keeps its primary key. A Mutate whose
// fn returns another key — fresh or taken, in the row's stripe or in
// another — is refused with ErrSchema after one call of fn, and leaves the
// row, both kinds of secondary index and the WAL as they were.
func TestMutateRefusesKeyChange(t *testing.T) {
	for _, parts := range []int{1, 8} {
		db, err := OpenWithOptions(t.TempDir(), Options{Partitions: parts})
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := db.CreateTable("articles", articleSchema(t))
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.CreateIndex("outlet", HashIndex); err != nil {
			t.Fatal(err)
		}
		if err := tbl.CreateIndex("score", OrderedIndex); err != nil {
			t.Fatal(err)
		}
		for i := int64(1); i <= 40; i++ {
			if _, err := tbl.Insert(articleRow(i, fmt.Sprintf("o%d", i), "t", float64(i))); err != nil {
				t.Fatal(err)
			}
		}
		// Target keys: the first taken (2..40) and the first fresh
		// (100..999) key in the row's own stripe and, at P > 1, in another.
		home := tbl.partFor(Int(1))
		targets := map[string]int64{}
		for _, keys := range []struct {
			kind     string
			from, to int64
		}{{"taken", 2, 40}, {"fresh", 100, 999}} {
			for k := keys.from; k <= keys.to; k++ {
				name := keys.kind + "/same-stripe"
				if tbl.partFor(Int(k)) != home {
					name = keys.kind + "/cross-stripe"
				}
				if _, seen := targets[name]; !seen {
					targets[name] = k
				}
			}
		}
		if len(targets) != 2*min(parts, 2) {
			t.Fatalf("P=%d: found targets %v", parts, targets)
		}
		before := dumpRows(t, tbl)
		walBytes := db.StorageStats().WALBytes
		for _, name := range slices.Sorted(maps.Keys(targets)) {
			k := targets[name]
			t.Run(fmt.Sprintf("P=%d/%s", parts, name), func(t *testing.T) {
				calls := 0
				err := tbl.Mutate(Int(1), func(r Row) (Row, error) {
					calls++
					r[0] = Int(k)
					r[1] = String("rekeyed")
					r[3] = Float(-1)
					return r, nil
				})
				if !errors.Is(err, ErrSchema) {
					t.Fatalf("key change 1 -> %d: %v, want ErrSchema", k, err)
				}
				if calls != 1 {
					t.Errorf("fn ran %d times, want 1", calls)
				}
				if !rowsIdentical(before, dumpRows(t, tbl)) {
					t.Error("refused mutate changed the table")
				}
				if got := db.StorageStats().WALBytes; got != walBytes {
					t.Errorf("refused mutate logged %d WAL bytes", got-walBytes)
				}
				if rows, err := lookupEq(tbl, "outlet", String("o1")); err != nil || len(rows) != 1 || !rows[0].Identical(before[0]) {
					t.Errorf("hash index outlet=o1: %v %v", rows, err)
				}
				if rows, _ := lookupEq(tbl, "outlet", String("rekeyed")); len(rows) != 0 {
					t.Errorf("hash index outlet=rekeyed: %v", rows)
				}
				if rows, err := lookupEq(tbl, "score", Float(1)); err != nil || len(rows) != 1 || !rows[0].Identical(before[0]) {
					t.Errorf("ordered index score=1: %v %v", rows, err)
				}
				if rows, _ := lookupEq(tbl, "score", Float(-1)); len(rows) != 0 {
					t.Errorf("ordered index score=-1: %v", rows)
				}
			})
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Identity is the hash indexes': -0 is another key than 0, and NaN
	// is its own key, although Value.Equal says the opposite of both. So
	// a key 0 -> -0 is a key change, and a hash-indexed column moving
	// 0 -> -0 moves its index entry.
	s, err := NewSchema([]Column{{Name: "k", Type: TFloat}, {Name: "v", Type: TFloat}}, "k")
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := NewDB().CreateTable("floats", s)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("v", HashIndex); err != nil {
		t.Fatal(err)
	}
	nan, negZero := Float(math.NaN()), Float(math.Copysign(0, -1))
	for _, k := range []Value{Float(0), nan} {
		if _, err := tbl.Insert(Row{k, Float(0)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Mutate(Float(0), func(r Row) (Row, error) { r[0] = negZero; return r, nil }); !errors.Is(err, ErrSchema) {
		t.Errorf("key 0 -> -0: %v, want ErrSchema", err)
	}
	if err := tbl.Mutate(nan, func(r Row) (Row, error) { r[1] = negZero; return r, nil }); err != nil {
		t.Errorf("NaN-keyed row: %v", err)
	}
	if r, err := tbl.Get(nan); err != nil || !r[1].sameKey(negZero) {
		t.Errorf("NaN-keyed row after mutate: %v %v", r, err)
	}
	for _, v := range []Value{Float(0), negZero} {
		if rows, err := lookupEq(tbl, "v", v); err != nil || len(rows) != 1 {
			t.Errorf("hash index v=%v: %d rows (%v), want 1", v, len(rows), err)
		}
	}
}

// TestConcurrentStripedWrites hammers a partitioned table from many
// goroutines — disjoint key sets plus shared-row mutates — under the race
// detector.
func TestConcurrentStripedWrites(t *testing.T) {
	tbl := partitionedArticleTable(t, 8)
	tbl.CreateIndex("outlet", HashIndex)
	if _, err := tbl.Insert(articleRow(999999, "shared", "s", 0)); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const perWorker = 150
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := int64(w*perWorker + i)
				if _, err := tbl.Insert(articleRow(id, fmt.Sprintf("outlet-%d", w), "t", 0)); err != nil {
					t.Errorf("insert %d: %v", id, err)
					return
				}
				if err := tbl.Mutate(Int(999999), func(r Row) (Row, error) {
					r[3] = Float(r[3].Float() + 1)
					return r, nil
				}); err != nil {
					t.Errorf("mutate: %v", err)
					return
				}
				if i%10 == 0 {
					tbl.Get(Int(id))
					lookupEq(tbl, "outlet", String("outlet-0"))
					tbl.Scan(func(Row) bool { return false })
				}
			}
		}(w)
	}
	wg.Wait()
	if tbl.Len() != workers*perWorker+1 {
		t.Fatalf("rows: %d", tbl.Len())
	}
	shared, err := tbl.Get(Int(999999))
	if err != nil {
		t.Fatal(err)
	}
	if got := shared[3].Float(); got != workers*perWorker {
		t.Fatalf("lost striped mutates: %v", got)
	}
}
