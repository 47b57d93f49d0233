package rdbms

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// planTable builds a 500-row table with an ordered index on score and a
// hash index on outlet, plus an index-free clone holding identical rows
// (the forced-scan reference for equivalence tests).
func planTable(t *testing.T) (indexed, bare *Table) {
	t.Helper()
	db := NewDB()
	indexed, err := db.CreateTable("articles", articleSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	bare, err = db.CreateTable("articles_bare", articleSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := int64(0); i < 500; i++ {
		outlet := "outlet-" + string(rune('a'+rng.Intn(5)))
		row := articleRow(i, outlet, "t", rng.Float64()*100)
		if _, err := indexed.Insert(row); err != nil {
			t.Fatal(err)
		}
		if _, err := bare.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := indexed.CreateIndex("score", OrderedIndex); err != nil {
		t.Fatal(err)
	}
	if err := indexed.CreateIndex("outlet", HashIndex); err != nil {
		t.Fatal(err)
	}
	return indexed, bare
}

// rangeIDs runs Range over score in [lo, hi] (nil = open) and returns the
// ids in the order Range produced them.
func rangeIDs(t *testing.T, tbl *Table, lo, hi *float64) []int64 {
	t.Helper()
	var lv, hv *Value
	if lo != nil {
		v := Float(*lo)
		lv = &v
	}
	if hi != nil {
		v := Float(*hi)
		hv = &v
	}
	var ids []int64
	err := tbl.Range("score", lv, hv, func(r Row) bool {
		ids = append(ids, r[0].Int())
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return ids
}

// scanIDs is the reference: a full scan of the index-free twin filtered to
// score in [lo, hi], in ascending score order (planTable's scores are
// distinct).
func scanIDs(bare *Table, lo, hi *float64) []int64 {
	var rows []Row
	bare.Scan(func(r Row) bool {
		s := r[3].Float()
		if (lo == nil || s >= *lo) && (hi == nil || s <= *hi) {
			rows = append(rows, r)
		}
		return true
	})
	sort.Slice(rows, func(i, j int) bool { return rows[i][3].Float() < rows[j][3].Float() })
	ids := make([]int64, len(rows))
	for i, r := range rows {
		ids[i] = r[0].Int()
	}
	return ids
}

func TestRangePlanMatchesScan(t *testing.T) {
	tbl, bare := planTable(t)
	var exact float64 // a stored score, so an inclusive point range holds it
	bare.Scan(func(r Row) bool { exact = r[3].Float(); return false })
	f := func(x float64) *float64 { return &x }
	cases := []struct{ lo, hi *float64 }{
		{f(25), nil},
		{nil, f(75)},
		{f(25), f(75)},
		{f(30), f(30.0001)},
		{f(99.999), nil},
		{nil, f(0.0001)},
		{f(exact), f(exact)},
		{f(60), f(40)}, // empty: lo above hi
		{nil, nil},
	}
	for i, c := range cases {
		got, want := rangeIDs(t, tbl, c.lo, c.hi), scanIDs(bare, c.lo, c.hi)
		if len(got) != len(want) {
			t.Fatalf("case %d: %d rows vs %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Errorf("case %d row %d: id %d vs %d", i, j, got[j], want[j])
			}
		}
	}
}

func TestRangePlanPropertyEquivalence(t *testing.T) {
	tbl, bare := planTable(t)
	f := func(rawLo, rawHi float64, openLo, openHi bool) bool {
		lo, hi := mod100(rawLo), mod100(rawHi)
		if lo > hi {
			lo, hi = hi, lo
		}
		lp, hp := &lo, &hi
		if openLo {
			lp = nil
		}
		if openHi {
			hp = nil
		}
		return len(rangeIDs(t, tbl, lp, hp)) == len(scanIDs(bare, lp, hp))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func mod100(x float64) float64 {
	if x < 0 {
		x = -x
	}
	for x > 100 {
		x /= 10
	}
	return x
}

// TestRangePlanWithLimitAndOrder stops a half-open range after five rows:
// they must be the five lowest scores at or above the bound, ascending.
func TestRangePlanWithLimitAndOrder(t *testing.T) {
	tbl, bare := planTable(t)
	lo := Float(50)
	var got []int64
	err := tbl.Range("score", &lo, nil, func(r Row) bool {
		got = append(got, r[0].Int())
		return len(got) < 5
	})
	if err != nil {
		t.Fatal(err)
	}
	bound := 50.0
	want := scanIDs(bare, &bound, nil)[:5]
	if len(got) != 5 {
		t.Fatalf("rows: %d", len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("row %d: id %d, want %d", i, got[i], want[i])
		}
	}
}

// TestOrderedIndexRemovesNaN: an ordered float column holding NaN keeps
// one entry per row. NaN sorts before every number, and removal matches
// an entry by row id and key identity, so a row moving off NaN or
// deleted leaves no stale node for Range to yield.
func TestOrderedIndexRemovesNaN(t *testing.T) {
	for _, parts := range []int{1, 4} {
		tbl := partitionedArticleTable(t, parts)
		if err := tbl.CreateIndex("score", OrderedIndex); err != nil {
			t.Fatal(err)
		}
		for id, score := range map[int64]float64{1: math.NaN(), 2: 3, 3: math.NaN()} {
			if _, err := tbl.Insert(articleRow(id, "o", "t", score)); err != nil {
				t.Fatal(err)
			}
		}
		lo := 1.0
		if got := rangeIDs(t, tbl, &lo, nil); !slices.Equal(got, []int64{2}) {
			t.Errorf("P=%d: Range(score >= 1) = %v, want [2]", parts, got)
		}
		if got := rangeIDs(t, tbl, nil, nil); len(got) != 3 || got[2] != 2 {
			t.Errorf("P=%d: Range = %v, want NaN rows 1 and 3 before 2", parts, got)
		}
		if err := tbl.Mutate(Int(1), func(r Row) (Row, error) { r[3] = Float(5); return r, nil }); err != nil {
			t.Fatal(err)
		}
		if got := rangeIDs(t, tbl, nil, nil); !slices.Equal(got, []int64{3, 2, 1}) {
			t.Errorf("P=%d: after NaN -> 5, Range = %v, want [3 2 1]", parts, got)
		}
		for _, id := range []int64{1, 3} {
			if err := tbl.Delete(Int(id)); err != nil {
				t.Fatal(err)
			}
		}
		var rows []Row
		if err := tbl.Range("score", nil, nil, func(r Row) bool { rows = append(rows, r); return true }); err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 || len(rows[0]) == 0 || rows[0][0].Int() != 2 {
			t.Errorf("P=%d: after deleting 1 and 3, Range = %v, want row 2 only", parts, rows)
		}
	}
}
