package rdbms

import (
	"errors"
	"fmt"
	"maps"
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
// updates, upserts, mutates, deletes, pk moves — through a single-lock
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
		// PK moves, including ones that change partition.
		for i := int64(7); i < 50; i += 7 {
			moved := articleRow(i+1000, "moved", "m", 1)
			if err := update(tbl, Int(i), moved); err != nil && !errors.Is(err, ErrNotFound) {
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

// TestCrossPartitionPKMove exercises Update and Mutate moves whose new key
// hashes to a different stripe.
func TestCrossPartitionPKMove(t *testing.T) {
	tbl := partitionedArticleTable(t, 8)
	tbl.CreateIndex("outlet", HashIndex)
	for i := int64(0); i < 64; i++ {
		tbl.Insert(articleRow(i, "o", "t", float64(i)))
	}
	// Update-based moves: every key moves to key+1000 (many cross stripes).
	for i := int64(0); i < 64; i++ {
		if err := update(tbl, Int(i), articleRow(i+1000, "o", "moved", float64(i))); err != nil {
			t.Fatalf("move %d: %v", i, err)
		}
	}
	if tbl.Len() != 64 {
		t.Fatalf("len after moves: %d", tbl.Len())
	}
	for i := int64(0); i < 64; i++ {
		if _, err := tbl.Get(Int(i)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("old pk %d lingers", i)
		}
		r, err := tbl.Get(Int(i + 1000))
		if err != nil || r[2].Str() != "moved" {
			t.Fatalf("new pk %d: %v %v", i+1000, r, err)
		}
	}
	// Secondary index stayed consistent across the moves.
	rows, err := lookupEq(tbl, "outlet", String("o"))
	if err != nil || len(rows) != 64 {
		t.Fatalf("index after moves: %d %v", len(rows), err)
	}
	// Mutate-based move.
	if err := tbl.Mutate(Int(1000), func(r Row) (Row, error) {
		r[0] = Int(4242)
		r[2] = String("mutate-moved")
		return r, nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Get(Int(1000)); !errors.Is(err, ErrNotFound) {
		t.Fatal("mutate move left old pk")
	}
	r, err := tbl.Get(Int(4242))
	if err != nil || r[2].Str() != "mutate-moved" {
		t.Fatalf("mutate move: %v %v", r, err)
	}
	// Moving onto an existing key fails whichever stripe it lives in.
	if err := update(tbl, Int(4242), articleRow(1001, "o", "clash", 0)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("cross-partition clash: %v", err)
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
