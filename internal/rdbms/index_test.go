package rdbms

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// idxModel drives a hashIdx over a real heap beside a reference model, the
// way a table does: a row id holds one key at a time, the heap slot is
// written before its entry is inserted and cleared after it is removed.
// The model is the representation hashIdx replaced — per key string, the
// ids in insertion order.
type idxModel struct {
	heap  []Row
	h     *hashIdx
	order map[string][]int
	live  int
	peak  int
}

// idxCol is the indexed column: not 0, so a probe that reads the wrong
// cell finds the filler.
const idxCol = 1

func newIdxModel(ids int) *idxModel {
	m := &idxModel{heap: make([]Row, ids), order: map[string][]int{}}
	m.h = newHashIdx(&m.heap, idxCol)
	return m
}

// insert puts key under id if the id is free; if it is taken it repeats
// the insert the id's row already had, which the index must ignore. It
// returns the key the step touched.
func (m *idxModel) insert(id int, key Value) Value {
	if row := m.heap[id]; row != nil {
		key = row[idxCol]
		m.h.insert(key, id)
		return key
	}
	m.heap[id] = Row{Int(-1), key}
	m.h.insert(key, id)
	k := key.hashKey()
	m.order[k] = append(m.order[k], id)
	m.live++
	m.peak = max(m.peak, m.live)
	return key
}

// remove takes id out from under key. When the id is free or holds another
// key the entry is absent and the index must ignore the call.
func (m *idxModel) remove(id int, key Value) {
	m.h.remove(key, id)
	if row := m.heap[id]; row == nil || !row[idxCol].sameKey(key) {
		return
	}
	m.heap[id] = nil
	k := key.hashKey()
	at := slices.Index(m.order[k], id)
	m.order[k] = slices.Delete(m.order[k], at, at+1)
	if len(m.order[k]) == 0 {
		delete(m.order, k)
	}
	m.live--
}

// lookupOne is lookupOneTag hashing v itself.
func (h *hashIdx) lookupOne(v Value) (int, bool) { return h.lookupOneTag(v.hash32(), v) }

// rowIDs collects the row ids h yields for key, in probe order.
func rowIDs(h *hashIdx, key Value) []int {
	var ids []int
	h.each(key, func(id int) bool { ids = append(ids, id); return true })
	return ids
}

// check compares every observable of key, and the table's size, with the
// model.
func (m *idxModel) check(key Value) error {
	want := m.order[key.hashKey()]
	if walked := rowIDs(m.h, key); !slices.Equal(walked, want) {
		return fmt.Errorf("each(%v) walked %v, want %v", key, walked, want)
	}
	calls := 0
	m.h.each(key, func(int) bool { calls++; return false })
	if wantCalls := min(1, len(want)); calls != wantCalls {
		return fmt.Errorf("each(%v) ignored stop: %d calls", key, calls)
	}
	one, ok := m.h.lookupOne(key)
	if ok != (len(want) > 0) || (ok && one != want[0]) {
		return fmt.Errorf("lookupOne(%v) = %d, %v; model holds %v", key, one, ok, want)
	}
	if m.h.n != m.live {
		return fmt.Errorf("%d entries counted, model has %d", m.h.n, m.live)
	}
	if bound := max(minHashEntries, 4*m.peak); len(m.h.entries) > bound {
		return fmt.Errorf("table has %d buckets for a peak of %d entries", len(m.h.entries), m.peak)
	}
	return nil
}

// checkAll is check over every key the model holds, plus a count of the
// buckets in use.
func (m *idxModel) checkAll() error {
	held := 0
	for _, e := range m.h.entries {
		if e.slot != 0 {
			held++
		}
	}
	if held != m.live {
		return fmt.Errorf("%d buckets in use, model has %d entries", held, m.live)
	}
	for _, ids := range m.order {
		if err := m.check(m.heap[ids[0]][idxCol]); err != nil {
			return err
		}
	}
	return nil
}

// TestHashIdxAgainstModel compares hashIdx with the model after every step
// of a long random run: set semantics, duplicate inserts and absent
// removes ignored, lookup/each/lookupOne agreeing and yielding ids in
// insertion order, stop honoured, entry count exact. 1 500 ids take the
// table through eight doublings; the wide key's cluster of hundreds wraps
// the array end whenever its home bucket sits near it.
func TestHashIdxAgainstModel(t *testing.T) {
	const ids, steps = 1500, 20000
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := newIdxModel(ids)

		// Int keys on odd seeds, string keys on even. Key 0 collects
		// hundreds of ids, forty keys hold a few, the rest are close to
		// unique; now and then a NULL.
		mk := func(n int) Value {
			if seed%2 == 0 {
				return String("https://outlet-7.example/2020/03/story-" + strconv.Itoa(n))
			}
			return Int(int64(n))
		}
		keyOf := func() Value {
			switch r := rng.Intn(20); {
			case r == 0:
				return Null()
			case r < 8:
				return mk(0)
			case r < 12:
				return mk(1 + rng.Intn(40))
			default:
				return mk(100 + rng.Intn(4000))
			}
		}

		wide := 0
		for step := 0; step < steps; step++ {
			id, key := rng.Intn(ids), keyOf()
			switch op := rng.Intn(10); {
			case op < 6:
				key = m.insert(id, key)
			case op < 8: // the row's own key, when it has one
				if row := m.heap[id]; row != nil {
					key = row[idxCol]
				}
				m.remove(id, key)
			case op < 9: // most likely not the row's key
				m.remove(id, key)
			}
			if err := m.check(key); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if step%2000 == 0 {
				if err := m.checkAll(); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			}
			wide = max(wide, len(m.order[mk(0).hashKey()]))
		}
		if err := m.checkAll(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if wide < 200 {
			t.Fatalf("seed %d: the wide key peaked at %d ids; the test no longer covers hundreds", seed, wide)
		}
		if len(m.h.entries) < 1024 {
			t.Fatalf("seed %d: the table ended at %d buckets; the test no longer covers several doublings", seed, len(m.h.entries))
		}
	}
}

// TestHashIdxKeyIdentity checks the index files rows under hashKey
// identity, not Equal: NaN rows can be found and removed, whatever their
// payload, and the two zeros do not share an entry list.
func TestHashIdxKeyIdentity(t *testing.T) {
	nan, nan2 := Float(math.NaN()), Float(math.Float64frombits(0x7ff8000000000000))
	zero, negZero := Float(0), Float(math.Copysign(0, -1))
	m := newIdxModel(8)
	for id, key := range []Value{nan, zero, nan2, negZero, Null(), zero, nan} {
		m.insert(id, key)
	}
	if got := rowIDs(m.h, nan2); !slices.Equal(got, []int{0, 2, 6}) {
		t.Errorf("lookup(NaN) = %v, want [0 2 6]", got)
	}
	if got := rowIDs(m.h, negZero); !slices.Equal(got, []int{3}) {
		t.Errorf("lookup(-0) = %v, want [3]", got)
	}
	m.remove(2, nan)
	m.remove(3, zero) // absent: row 3 holds -0
	if err := m.checkAll(); err != nil {
		t.Fatal(err)
	}
	if m.live != 6 {
		t.Errorf("%d entries left, want 6", m.live)
	}
}

// TestHashIdxChurnDoesNotGrow is the dead_letters pattern: fresh keys
// inserted and deleted for ever over a few recycled row ids. Deletion
// leaves no tombstones, so the table stays the size its live set needs.
func TestHashIdxChurnDoesNotGrow(t *testing.T) {
	const live = 64
	m := newIdxModel(live)
	key := func(n int) Value { return String("dl-" + strconv.Itoa(n)) }
	for n := 0; n < live; n++ {
		m.insert(n, key(n))
	}
	for n := live; n < live+100000; n++ {
		id := n % live
		m.remove(id, m.heap[id][idxCol])
		m.insert(id, key(n))
	}
	if err := m.checkAll(); err != nil {
		t.Fatal(err)
	}
	if len(m.h.entries) > 2*live {
		t.Errorf("table grew to %d buckets for %d live entries", len(m.h.entries), live)
	}
}

// FuzzHashIdx decodes ops as three-byte steps — operation, row id, key —
// over 64 ids and 32 keys (ints, strings and NULL), and checks every step
// against the model. The seeds under testdata/fuzz/FuzzHashIdx fill the
// table to its growth threshold, wrap a cluster round the array end and
// delete a cluster's head.
func FuzzHashIdx(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := newIdxModel(64)
		for ; len(ops) >= 3; ops = ops[3:] {
			id := int(ops[1] % 64)
			var key Value
			switch k := int64(ops[2] % 16); {
			case k == 15:
				key = Null()
			case ops[2]&0x80 != 0:
				key = String(strconv.FormatInt(k, 10))
			default:
				key = Int(k)
			}
			switch ops[0] % 4 {
			case 0, 1:
				key = m.insert(id, key)
			case 2:
				if row := m.heap[id]; row != nil {
					key = row[idxCol]
				}
				m.remove(id, key)
			case 3:
				m.remove(id, key)
			}
			if err := m.check(key); err != nil {
				t.Fatalf("%d bytes from the end: %v", len(ops), err)
			}
		}
		if err := m.checkAll(); err != nil {
			t.Fatal(err)
		}
	})
}

// urlKey is a 46-byte article URL, the key resolveArticleID probes with.
func urlKey(i int) Value {
	return String(fmt.Sprintf("https://outlet-07.example/2020/03/story-%06d", i))
}

// TestHashIdxProbesDoNotAllocate guards the read paths the request path
// runs per lookup — the primary-key probe and the secondary-index walk —
// with string keys, whose hash key is a concatenation.
func TestHashIdxProbesDoNotAllocate(t *testing.T) {
	m := newIdxModel(400)
	for id := 0; id < 300; id++ {
		m.insert(id, urlKey(0))
	}
	keys := make([]Value, 64)
	for i := range keys {
		keys[i] = urlKey(1 + i)
		m.insert(300+i, keys[i])
	}
	if len(keys[0].Str()) != 46 {
		t.Fatalf("url key is %d bytes", len(keys[0].Str()))
	}

	sum := 0
	if n := testing.AllocsPerRun(100, func() {
		for _, k := range keys {
			id, _ := m.h.lookupOne(k)
			sum += id
		}
	}); n != 0 {
		t.Errorf("lookupOne allocates %v times per run", n)
	}
	for _, v := range []Value{urlKey(0), keys[7], urlKey(-1)} {
		if n := testing.AllocsPerRun(100, func() {
			m.h.each(v, func(id int) bool { sum += id; return true })
		}); n != 0 {
			t.Errorf("each(%v) allocates %v times per run", v, n)
		}
	}
	if sum == 0 {
		t.Error("probes found nothing")
	}
}

// TestTableProbesDoNotAllocate is the same guard one level up, on a
// 5 000-row table with the default eight stripes: what a stored read and a
// reaction's URL resolution cost, and what the write paths may still
// allocate — the rows they clone, nothing for the key.
func TestTableProbesDoNotAllocate(t *testing.T) {
	schema, err := NewSchema([]Column{
		{Name: "id", Type: TString},
		{Name: "url", Type: TString},
		{Name: "n", Type: TInt},
	}, "id")
	if err != nil {
		t.Fatal(err)
	}
	tbl := newTable("articles", schema, DefaultPartitions, nil, newMetrics(nil))
	if err := tbl.CreateIndex("url", HashIndex); err != nil {
		t.Fatal(err)
	}
	const rows = 5000
	id := func(i int) Value { return String(fmt.Sprintf("art-%06d", i)) }
	for i := 0; i < rows; i++ {
		if _, err := tbl.Insert(Row{id(i), urlKey(i), Int(0)}); err != nil {
			t.Fatal(err)
		}
	}

	pk, url, row := id(4321), urlKey(4321), Row{id(4321), urlKey(4321), Int(1)}
	found := 0
	see := func(Row) { found++ }
	seeEq := func(Row) bool { found++; return true }
	bump := func(r Row) (Row, error) { r[2] = Int(r[2].Int() + 1); return r, nil }
	for _, c := range []struct {
		name string
		max  float64
		fn   func() error
	}{
		{"View", 0, func() error { return tbl.View(pk, see) }},
		{"ViewEq", 0, func() error { return tbl.ViewEq("url", url, seeEq) }},
		{"Upsert of an existing key", 1, func() error { return tbl.Upsert(row) }},
		{"Mutate", 2, func() error { return tbl.Mutate(pk, bump) }},
	} {
		var err error
		if n := testing.AllocsPerRun(100, func() { err = c.fn() }); n > c.max {
			t.Errorf("%s allocates %v times per run, want <= %v", c.name, n, c.max)
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
	if found != 2*101 {
		t.Errorf("View and ViewEq saw %d rows in 202 calls", found)
	}
}
