package rdbms

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func articleSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema([]Column{
		{Name: "id", Type: TInt},
		{Name: "outlet", Type: TString, NotNull: true},
		{Name: "title", Type: TString},
		{Name: "score", Type: TFloat},
		{Name: "published", Type: TTime},
		{Name: "reviewed", Type: TBool},
	}, "id")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func articleRow(id int64, outlet, title string, score float64) Row {
	return Row{
		Int(id), String(outlet), String(title), Float(score),
		Time(time.Date(2020, 1, 15, 0, 0, 0, 0, time.UTC).Add(time.Duration(id) * time.Hour)),
		Bool(id%2 == 0),
	}
}

// update replaces the row stored under pk with r through Mutate, the
// table's one update entry.
func update(tbl *Table, pk Value, r Row) error {
	return tbl.Mutate(pk, func(Row) (Row, error) { return r, nil })
}

// lookupEq gathers copies of the rows whose indexed column equals v
// through the table's read paths: ViewEq over a hash index, Range from v
// to v over an ordered one.
func lookupEq(tbl *Table, col string, v Value) ([]Row, error) {
	out := []Row{}
	collect := func(r Row) bool {
		out = append(out, r.Clone())
		return true
	}
	if kind, ok := tbl.IndexKindOf(col); ok && kind == OrderedIndex {
		return out, tbl.Range(col, &v, &v, collect)
	}
	return out, tbl.ViewEq(col, v, collect)
}

func newArticleTable(t *testing.T) *Table {
	t.Helper()
	db := NewDB()
	tbl, err := db.CreateTable("articles", articleSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// --- Schema ---

func TestNewSchemaValidation(t *testing.T) {
	if _, err := NewSchema(nil, "id"); !errors.Is(err, ErrSchema) {
		t.Errorf("empty cols: %v", err)
	}
	if _, err := NewSchema([]Column{{Name: "a", Type: TInt}}, "missing"); !errors.Is(err, ErrSchema) {
		t.Errorf("missing pk: %v", err)
	}
	if _, err := NewSchema([]Column{{Name: "a", Type: TInt}, {Name: "a", Type: TInt}}, "a"); !errors.Is(err, ErrSchema) {
		t.Errorf("duplicate col: %v", err)
	}
	if _, err := NewSchema([]Column{{Name: "", Type: TInt}}, ""); !errors.Is(err, ErrSchema) {
		t.Errorf("unnamed col: %v", err)
	}
	s, err := NewSchema([]Column{{Name: "a", Type: TInt}}, "a")
	if err != nil {
		t.Fatal(err)
	}
	if !s.Cols[s.PK].NotNull {
		t.Error("pk should be forced NOT NULL")
	}
}

func TestSchemaValidateRows(t *testing.T) {
	s := articleSchema(t)
	ok := articleRow(1, "o", "t", 0.5)
	if err := s.Validate(ok); err != nil {
		t.Errorf("valid row rejected: %v", err)
	}
	if err := s.Validate(ok[:2]); !errors.Is(err, ErrSchema) {
		t.Errorf("arity: %v", err)
	}
	bad := ok.Clone()
	bad[3] = String("not a float")
	if err := s.Validate(bad); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("type: %v", err)
	}
	null := ok.Clone()
	null[1] = Null() // outlet NOT NULL
	if err := s.Validate(null); !errors.Is(err, ErrSchema) {
		t.Errorf("not null: %v", err)
	}
	nullable := ok.Clone()
	nullable[2] = Null() // title nullable
	if err := s.Validate(nullable); err != nil {
		t.Errorf("nullable: %v", err)
	}
}

// --- Values ---

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Float(1.5), Float(2.5), -1},
		{String("a"), String("b"), -1},
		{Bool(false), Bool(true), -1},
		{Time(time.Unix(1, 0)), Time(time.Unix(2, 0)), -1},
		{Null(), Int(0), -1},
		{Int(0), Null(), 1},
		{Null(), Null(), 0},
	}
	for _, c := range cases {
		got, err := c.a.Compare(c.b)
		if err != nil {
			t.Errorf("Compare(%v,%v): %v", c.a, c.b, err)
			continue
		}
		if got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if _, err := Int(1).Compare(String("x")); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("mixed compare: %v", err)
	}
}

func TestValueStringRendering(t *testing.T) {
	if Null().String() != "NULL" {
		t.Error("null render")
	}
	if Int(42).String() != "42" {
		t.Error("int render")
	}
	if String("x").String() != `"x"` {
		t.Error("string render")
	}
	if Bool(true).String() != "true" {
		t.Error("bool render")
	}
	if Type(99).String() != "UNKNOWN" {
		t.Error("unknown type name")
	}
}

// --- Table CRUD ---

func TestInsertGetUpdateDelete(t *testing.T) {
	tbl := newArticleTable(t)
	if _, err := tbl.Insert(articleRow(1, "outlet-a", "Title", 0.7)); err != nil {
		t.Fatal(err)
	}
	got, err := tbl.Get(Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if got[2].Str() != "Title" {
		t.Errorf("title: %v", got[2])
	}
	// Duplicate pk.
	if _, err := tbl.Insert(articleRow(1, "o", "t", 0)); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate: %v", err)
	}
	// Update.
	upd := articleRow(1, "outlet-a", "New Title", 0.9)
	if err := update(tbl, Int(1), upd); err != nil {
		t.Fatal(err)
	}
	got, _ = tbl.Get(Int(1))
	if got[2].Str() != "New Title" || got[3].Float() != 0.9 {
		t.Errorf("after update: %v", got)
	}
	// Delete.
	if err := tbl.Delete(Int(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Get(Int(1)); !errors.Is(err, ErrNotFound) {
		t.Errorf("after delete: %v", err)
	}
	if err := tbl.Delete(Int(1)); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete: %v", err)
	}
	if tbl.Len() != 0 {
		t.Errorf("len: %d", tbl.Len())
	}
}

func TestInsertReturnedRowIsCopy(t *testing.T) {
	tbl := newArticleTable(t)
	row := articleRow(1, "o", "t", 0.5)
	tbl.Insert(row)
	row[2] = String("mutated")
	got, _ := tbl.Get(Int(1))
	if got[2].Str() != "t" {
		t.Error("insert did not copy the row")
	}
	got[2] = String("mutated2")
	again, _ := tbl.Get(Int(1))
	if again[2].Str() != "t" {
		t.Error("get did not copy the row")
	}
}

func TestUpsert(t *testing.T) {
	tbl := newArticleTable(t)
	if err := tbl.Upsert(articleRow(1, "o", "v1", 0.1)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Upsert(articleRow(1, "o", "v2", 0.2)); err != nil {
		t.Fatal(err)
	}
	got, _ := tbl.Get(Int(1))
	if got[2].Str() != "v2" {
		t.Errorf("upsert: %v", got[2])
	}
	if tbl.Len() != 1 {
		t.Errorf("len: %d", tbl.Len())
	}
}

// TestUpdatePKMove: an update that would move a row to another primary
// key — fresh or taken — is refused with ErrSchema and leaves both rows
// as they were.
func TestUpdatePKMove(t *testing.T) {
	tbl := newArticleTable(t)
	tbl.Insert(articleRow(1, "o", "t", 0.5))
	tbl.Insert(articleRow(2, "o", "other", 0.5))
	before := dumpRows(t, tbl)
	for _, to := range []int64{3, 2} {
		if err := update(tbl, Int(1), articleRow(to, "o", "moved", 0.5)); !errors.Is(err, ErrSchema) {
			t.Errorf("move 1 -> %d: %v, want ErrSchema", to, err)
		}
	}
	if _, err := tbl.Get(Int(3)); !errors.Is(err, ErrNotFound) {
		t.Errorf("refused move created pk 3: %v", err)
	}
	if !rowsIdentical(before, dumpRows(t, tbl)) {
		t.Errorf("refused moves changed the table: %v", dumpRows(t, tbl))
	}
}

func TestSlotReuseAfterDelete(t *testing.T) {
	tbl := newArticleTable(t)
	tbl.Insert(articleRow(1, "o", "a", 0))
	tbl.Insert(articleRow(2, "o", "b", 0))
	tbl.Delete(Int(1))
	tbl.Insert(articleRow(3, "o", "c", 0))
	if tbl.Len() != 2 {
		t.Errorf("len: %d", tbl.Len())
	}
	count := 0
	tbl.Scan(func(r Row) bool { count++; return true })
	if count != 2 {
		t.Errorf("scan count: %d", count)
	}
}

// --- Indexes ---

func TestHashIndexLookup(t *testing.T) {
	tbl := newArticleTable(t)
	for i := int64(1); i <= 10; i++ {
		outlet := "low"
		if i%2 == 0 {
			outlet = "high"
		}
		tbl.Insert(articleRow(i, outlet, "t", 0))
	}
	if err := tbl.CreateIndex("outlet", HashIndex); err != nil {
		t.Fatal(err)
	}
	rows, err := lookupEq(tbl, "outlet", String("high"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Errorf("high rows: %d", len(rows))
	}
	// Index follows updates and deletes.
	tbl.Delete(Int(2))
	rows, _ = lookupEq(tbl, "outlet", String("high"))
	if len(rows) != 4 {
		t.Errorf("after delete: %d", len(rows))
	}
	upd := articleRow(4, "low", "t", 0)
	update(tbl, Int(4), upd)
	rows, _ = lookupEq(tbl, "outlet", String("high"))
	if len(rows) != 3 {
		t.Errorf("after update: %d", len(rows))
	}
	rows, _ = lookupEq(tbl, "outlet", String("low"))
	if len(rows) != 6 {
		t.Errorf("low rows: %d", len(rows))
	}
}

func TestCreateIndexErrors(t *testing.T) {
	tbl := newArticleTable(t)
	if err := tbl.CreateIndex("nope", HashIndex); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing col: %v", err)
	}
	tbl.CreateIndex("outlet", HashIndex)
	if err := tbl.CreateIndex("outlet", OrderedIndex); !errors.Is(err, ErrExists) {
		t.Errorf("dup index: %v", err)
	}
	if _, err := lookupEq(tbl, "title", String("x")); !errors.Is(err, ErrNotFound) {
		t.Errorf("unindexed lookup: %v", err)
	}
}

func TestCreateIndexBackfillsExistingRows(t *testing.T) {
	tbl := newArticleTable(t)
	for i := int64(1); i <= 5; i++ {
		tbl.Insert(articleRow(i, "o", "t", float64(i)))
	}
	tbl.CreateIndex("score", OrderedIndex)
	lo, hi := Float(2), Float(4)
	var seen []float64
	tbl.Range("score", &lo, &hi, func(r Row) bool {
		seen = append(seen, r[3].Float())
		return true
	})
	if len(seen) != 3 || seen[0] != 2 || seen[2] != 4 {
		t.Errorf("range: %v", seen)
	}
}

func TestOrderedIndexRange(t *testing.T) {
	tbl := newArticleTable(t)
	tbl.CreateIndex("published", OrderedIndex)
	base := time.Date(2020, 1, 15, 0, 0, 0, 0, time.UTC)
	for i := int64(0); i < 60; i++ {
		tbl.Insert(Row{
			Int(i), String("o"), String("t"), Float(0),
			Time(base.AddDate(0, 0, int(i))), Bool(false),
		})
	}
	lo := Time(base.AddDate(0, 0, 10))
	hi := Time(base.AddDate(0, 0, 19))
	var got []int64
	err := tbl.Range("published", &lo, &hi, func(r Row) bool {
		got = append(got, r[0].Int())
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("range size: %d (%v)", len(got), got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("not ascending: %v", got)
		}
	}
	// Open-ended ranges.
	var all []int64
	tbl.Range("published", nil, nil, func(r Row) bool {
		all = append(all, r[0].Int())
		return true
	})
	if len(all) != 60 {
		t.Errorf("open range: %d", len(all))
	}
	// Early stop.
	n := 0
	tbl.Range("published", nil, nil, func(r Row) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Errorf("early stop: %d", n)
	}
	// Range on hash index fails.
	tbl.CreateIndex("outlet", HashIndex)
	if err := tbl.Range("outlet", nil, nil, func(Row) bool { return true }); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("hash range: %v", err)
	}
}

func TestIndexKindOf(t *testing.T) {
	tbl, _ := planTable(t)
	if kind, ok := tbl.IndexKindOf("score"); !ok || kind != OrderedIndex {
		t.Errorf("score: %v %v", kind, ok)
	}
	if kind, ok := tbl.IndexKindOf("outlet"); !ok || kind != HashIndex {
		t.Errorf("outlet: %v %v", kind, ok)
	}
	if _, ok := tbl.IndexKindOf("title"); ok {
		t.Error("title should have no index")
	}
}

func TestOrderedIndexDuplicateValues(t *testing.T) {
	tbl := newArticleTable(t)
	tbl.CreateIndex("score", OrderedIndex)
	for i := int64(0); i < 20; i++ {
		tbl.Insert(articleRow(i, "o", "t", float64(i%4)))
	}
	rows, err := lookupEq(tbl, "score", Float(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Errorf("duplicates: %d", len(rows))
	}
	// Delete one of them; lookup shrinks.
	tbl.Delete(rows[0][0])
	rows, _ = lookupEq(tbl, "score", Float(2))
	if len(rows) != 4 {
		t.Errorf("after delete: %d", len(rows))
	}
}

// --- DB ---

func TestDBTableLifecycle(t *testing.T) {
	db := NewDB()
	s := articleSchema(t)
	if _, err := db.CreateTable("a", s); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("a", s); !errors.Is(err, ErrExists) {
		t.Errorf("dup table: %v", err)
	}
	if _, err := db.CreateTable("", s); !errors.Is(err, ErrSchema) {
		t.Errorf("empty name: %v", err)
	}
	if _, err := db.Table("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing table: %v", err)
	}
	if names := db.TableNames(); len(names) != 1 || names[0] != "a" {
		t.Errorf("names: %v", names)
	}
}

// --- Concurrency ---

func TestConcurrentInsertsAndReads(t *testing.T) {
	tbl := newArticleTable(t)
	tbl.CreateIndex("outlet", HashIndex)
	var wg sync.WaitGroup
	const workers = 8
	const perWorker = 200
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
				if i%10 == 0 {
					tbl.Scan(func(Row) bool { return false })
					lookupEq(tbl, "outlet", String("outlet-0"))
				}
			}
		}(w)
	}
	wg.Wait()
	if tbl.Len() != workers*perWorker {
		t.Errorf("rows: %d want %d", tbl.Len(), workers*perWorker)
	}
}

// --- Mutate ---

func TestMutateBasics(t *testing.T) {
	tbl := newArticleTable(t)
	if _, err := tbl.Insert(articleRow(1, "o1", "t1", 0.5)); err != nil {
		t.Fatal(err)
	}
	// Transform in place.
	if err := tbl.Mutate(Int(1), func(r Row) (Row, error) {
		r[3] = Float(0.9)
		return r, nil
	}); err != nil {
		t.Fatal(err)
	}
	got, err := tbl.Get(Int(1))
	if err != nil || got[3].Float() != 0.9 {
		t.Fatalf("mutated row: %v %v", got, err)
	}
	// fn error aborts without writing and is returned unwrapped.
	sentinel := errors.New("skip")
	if err := tbl.Mutate(Int(1), func(Row) (Row, error) { return nil, sentinel }); !errors.Is(err, sentinel) {
		t.Errorf("fn error: %v", err)
	}
	got, _ = tbl.Get(Int(1))
	if got[3].Float() != 0.9 {
		t.Error("aborted mutate must not write")
	}
	// Unknown pk.
	if err := tbl.Mutate(Int(99), func(r Row) (Row, error) { return r, nil }); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing pk: %v", err)
	}
	// Schema violations are rejected.
	if err := tbl.Mutate(Int(1), func(r Row) (Row, error) {
		r[1] = Value{} // outlet is NOT NULL
		return r, nil
	}); err == nil {
		t.Error("schema violation should fail")
	}
}

func TestMutateReceivesClone(t *testing.T) {
	tbl := newArticleTable(t)
	if _, err := tbl.Insert(articleRow(1, "o1", "t1", 0.5)); err != nil {
		t.Fatal(err)
	}
	var captured Row
	if err := tbl.Mutate(Int(1), func(r Row) (Row, error) {
		captured = r
		return r, nil
	}); err != nil {
		t.Fatal(err)
	}
	// Mutating the captured row after the call must not reach the heap
	// (Mutate handed us a clone, and updateLocked clones again on write).
	captured[3] = Float(-1)
	got, _ := tbl.Get(Int(1))
	if got[3].Float() == -1 {
		t.Error("retained row aliases table heap")
	}
}

// TestMutateAtomicIncrements hammers one row with concurrent increments:
// with the read-modify-write under one lock acquisition no update may be
// lost (the failure mode of a separate Get + Update pair).
func TestMutateAtomicIncrements(t *testing.T) {
	tbl := newArticleTable(t)
	if _, err := tbl.Insert(articleRow(1, "o1", "t1", 0)); err != nil {
		t.Fatal(err)
	}
	const goroutines, perG = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if err := tbl.Mutate(Int(1), func(r Row) (Row, error) {
					r[3] = Float(r[3].Float() + 1)
					return r, nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	got, err := tbl.Get(Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(goroutines * perG); got[3].Float() != want {
		t.Errorf("lost updates: got %v want %v", got[3].Float(), want)
	}
}
