package rdbms

import (
	"math/bits"
	"math/rand"
	"sync"
)

// IndexKind selects the index data structure.
type IndexKind uint8

// Index kinds.
const (
	// HashIndex supports O(1) equality lookups.
	HashIndex IndexKind = iota
	// OrderedIndex supports range scans (skip list).
	OrderedIndex
)

// index is the internal interface both index kinds implement. Row ids are
// heap slot numbers.
type index interface {
	insert(v Value, rowID int)
	remove(v Value, rowID int)
}

// hashIdx is an equality index that stores no keys: an open-addressed
// table of 8-byte entries, each the key's hash32 and a row id. A probe
// compares the tag and then the indexed column of the row itself, which
// the caller was about to read anyway — so a key lives once, in its row,
// and the table is pointer-free (the GC never scans it).
//
// Entries with equal keys share a home bucket; insertion takes the first
// empty slot along the probe sequence, deletion shifts the cluster back
// without reordering it, and growth re-inserts each cluster from its head.
// A key's rows therefore sit along its probe sequence in insertion order,
// which is the order each/lookup yield and lookupOne's "first".
//
// The index reads rows, so a lookup needs heap[id] to hold the row whose
// key the entry carries. Every mutation runs under the stripe write lock;
// within it insert, remove and grow never read a row (they match on tag
// and id alone), so only the order against lookups matters: the heap slot
// is written before its entry is inserted.
type hashIdx struct {
	heap    *[]Row // the partition's heap; a pointer, because resets and appends replace the slice
	col     int    // indexed column
	entries []hashEntry
	n       int   // live entries
	shift   uint8 // 32 - log2(len(entries))
}

// hashEntry is one table slot; the zero entry is empty.
type hashEntry struct {
	tag  uint32 // hash32 of the row's key
	slot uint32 // row id + 1
}

// maxStripeRows bounds a stripe's heap so that every row id + 1 fits a
// hashEntry (2³¹ slice headers are 51 GB — unreachable, but refused rather
// than truncated).
const maxStripeRows = 1<<31 - 1

const minHashEntries = 8

func newHashIdx(heap *[]Row, col int) *hashIdx { return &hashIdx{heap: heap, col: col} }

// home is the first bucket of tag's probe sequence. It takes the high bits
// of a multiplicative mix, not the tag's low bits: inside stripe i every
// primary key has tag % P == i, which would leave all but 1/P of a pk
// table's home buckets unused.
func (h *hashIdx) home(tag uint32) uint32 { return (tag * 0x9E3779B1) >> h.shift }

func (h *hashIdx) insert(v Value, rowID int) { h.insertTag(v.hash32(), rowID) }

// insertTag is insert with the key's hash32 precomputed — the primary-key
// path, where the partition router already paid for it. Inserting a
// (key, row id) pair the index holds is a no-op.
func (h *hashIdx) insertTag(tag uint32, rowID int) {
	if (h.n+1)*4 > len(h.entries)*3 {
		h.grow()
	}
	e := hashEntry{tag: tag, slot: uint32(rowID) + 1}
	mask := uint32(len(h.entries) - 1)
	i := h.home(tag)
	for h.entries[i].slot != 0 {
		if h.entries[i] == e {
			return
		}
		i = (i + 1) & mask
	}
	h.entries[i] = e
	h.n++
}

// grow doubles the table. The walk starts just after an empty slot, so a
// cluster that wraps the array end is re-inserted from its head like any
// other and equal keys keep their order.
func (h *hashIdx) grow() {
	old := h.entries
	size := max(minHashEntries, 2*len(old))
	h.entries = make([]hashEntry, size)
	h.shift = uint8(32 - bits.TrailingZeros(uint(size)))
	if len(old) == 0 {
		return
	}
	start := 0
	for old[start].slot != 0 {
		start++
	}
	mask := uint32(size - 1)
	for k := 1; k <= len(old); k++ {
		e := old[(start+k)&(len(old)-1)]
		if e.slot == 0 {
			continue
		}
		i := h.home(e.tag)
		for h.entries[i].slot != 0 {
			i = (i + 1) & mask
		}
		h.entries[i] = e
	}
}

func (h *hashIdx) remove(v Value, rowID int) { h.removeTag(v.hash32(), rowID) }

// removeTag deletes the (tag, row id) entry if present and closes the gap
// by backward shift: every later entry of the cluster whose home bucket
// does not lie between the gap and itself moves into the gap. No
// tombstones, so a table that inserts and deletes for ever does not grow.
func (h *hashIdx) removeTag(tag uint32, rowID int) {
	if h.n == 0 {
		return
	}
	e := hashEntry{tag: tag, slot: uint32(rowID) + 1}
	mask := uint32(len(h.entries) - 1)
	i := h.home(tag)
	for h.entries[i] != e {
		if h.entries[i].slot == 0 {
			return
		}
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; h.entries[j].slot != 0; j = (j + 1) & mask {
		// The entry at j may fill the gap at i unless its home lies in
		// (i, j]: it is at least as far from home as from the gap.
		if (j-h.home(h.entries[j].tag))&mask >= (j-i)&mask {
			h.entries[i] = h.entries[j]
			i = j
		}
	}
	h.entries[i] = hashEntry{}
	h.n--
}

// probe walks tag's probe sequence from bucket i and returns the first
// bucket whose row holds v, or false at the cluster's end.
func (h *hashIdx) probe(i, tag uint32, v Value) (uint32, bool) {
	if h.n == 0 {
		return 0, false
	}
	heap := *h.heap
	mask := uint32(len(h.entries) - 1)
	for ; h.entries[i].slot != 0; i = (i + 1) & mask {
		if e := h.entries[i]; e.tag == tag && heap[e.slot-1][h.col].sameKey(v) {
			return i, true
		}
	}
	return 0, false
}

// lookupOneTag returns the first-inserted row id matching v, whose hash32
// is tag, without allocating — the primary-key fast path, where at most
// one row matches.
func (h *hashIdx) lookupOneTag(tag uint32, v Value) (int, bool) {
	i, ok := h.probe(h.home(tag), tag, v)
	if !ok {
		return 0, false
	}
	return int(h.entries[i].slot - 1), true
}

// each invokes fn with every matching row id in insertion order, without
// allocating; fn returns false to stop early.
func (h *hashIdx) each(v Value, fn func(rowID int) bool) { h.eachTag(v.hash32(), v, fn) }

// eachTag is each with v's hash32 precomputed: a caller that probes every
// stripe hashes once.
func (h *hashIdx) eachTag(tag uint32, v Value, fn func(rowID int) bool) {
	mask := uint32(len(h.entries) - 1)
	for i, ok := h.probe(h.home(tag), tag, v); ok; i, ok = h.probe((i+1)&mask, tag, v) {
		if !fn(int(h.entries[i].slot - 1)) {
			return
		}
	}
}

// skipNode is one node of the skip list backing OrderedIndex. Duplicate
// values are allowed; each (value, rowID) pair is one node.
type skipNode struct {
	val   Value
	rowID int
	next  []*skipNode
}

const maxSkipLevel = 24

// skipIdx is an ordered index implemented as a skip list keyed by
// (value, rowID).
type skipIdx struct {
	head  *skipNode
	level int
	rng   *rand.Rand
	mu    sync.Mutex // protects rng only; structural locks live in Table
}

func newSkipIdx(seed int64) *skipIdx {
	return &skipIdx{
		head:  &skipNode{next: make([]*skipNode, maxSkipLevel)},
		level: 1,
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// less orders by (value, rowID).
func less(av Value, aID int, bv Value, bID int) bool {
	c, err := av.Compare(bv)
	if err != nil {
		// Mixed kinds should be prevented by schema validation; order by
		// kind as a total-order fallback.
		return av.Kind() < bv.Kind()
	}
	if c != 0 {
		return c < 0
	}
	return aID < bID
}

func (s *skipIdx) randomLevel() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	lvl := 1
	for lvl < maxSkipLevel && s.rng.Intn(2) == 0 {
		lvl++
	}
	return lvl
}

func (s *skipIdx) insert(v Value, rowID int) {
	update := make([]*skipNode, maxSkipLevel)
	x := s.head
	for i := s.level - 1; i >= 0; i-- {
		for x.next[i] != nil && less(x.next[i].val, x.next[i].rowID, v, rowID) {
			x = x.next[i]
		}
		update[i] = x
	}
	lvl := s.randomLevel()
	if lvl > s.level {
		for i := s.level; i < lvl; i++ {
			update[i] = s.head
		}
		s.level = lvl
	}
	node := &skipNode{val: v, rowID: rowID, next: make([]*skipNode, lvl)}
	for i := 0; i < lvl; i++ {
		node.next[i] = update[i].next[i]
		update[i].next[i] = node
	}
}

func (s *skipIdx) remove(v Value, rowID int) {
	update := make([]*skipNode, maxSkipLevel)
	x := s.head
	for i := s.level - 1; i >= 0; i-- {
		for x.next[i] != nil && less(x.next[i].val, x.next[i].rowID, v, rowID) {
			x = x.next[i]
		}
		update[i] = x
	}
	// The pk index's key identity, not Equal: a NaN entry equals nothing
	// and would never leave the list.
	target := x.next[0]
	if target == nil || target.rowID != rowID || !target.val.sameKey(v) {
		return
	}
	for i := 0; i < s.level; i++ {
		if update[i].next[i] == target {
			update[i].next[i] = target.next[i]
		}
	}
	for s.level > 1 && s.head.next[s.level-1] == nil {
		s.level--
	}
}

// seek returns the first node whose value is >= lo (every node when lo is
// nil) — the cursor entry point for merged multi-partition range scans.
// Callers walk forward via next[0].
func (s *skipIdx) seek(lo *Value) *skipNode {
	x := s.head
	if lo != nil {
		for i := s.level - 1; i >= 0; i-- {
			for x.next[i] != nil && less(x.next[i].val, -1<<62, *lo, -1<<62) {
				x = x.next[i]
			}
		}
	}
	return x.next[0]
}
