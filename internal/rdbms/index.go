package rdbms

import (
	"math/rand"
	"slices"
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
	lookup(v Value) []int
	// scanRange calls fn for each (value, rowID) with lo <= value <= hi,
	// ascending; nil bounds are open. Only ordered indexes support it.
	scanRange(lo, hi *Value, fn func(v Value, rowID int) bool) error
	kind() IndexKind
}

// hashIdx is an equality index: value hash key → set of row ids.
type hashIdx struct {
	m map[string]idList
}

// idList is a non-empty set of row ids in insertion order. The first id
// sits in the map slot itself, so a unique key — every primary key — costs
// no allocation beyond the slot; only further ids spill into the slice.
type idList struct {
	first int
	rest  []int
}

func newHashIdx() *hashIdx { return &hashIdx{m: make(map[string]idList)} }

func (h *hashIdx) kind() IndexKind { return HashIndex }

func (h *hashIdx) insert(v Value, rowID int) { h.insertKey(v.hashKey(), rowID) }

// insertKey is insert with the hash key precomputed — the primary-key
// path, where the partition router already paid for the key.
func (h *hashIdx) insertKey(k string, rowID int) {
	l, ok := h.m[k]
	if !ok {
		h.m[k] = idList{first: rowID}
		return
	}
	if l.first == rowID || slices.Contains(l.rest, rowID) {
		return
	}
	l.rest = append(l.rest, rowID)
	h.m[k] = l
}

func (h *hashIdx) remove(v Value, rowID int) { h.removeKey(v.hashKey(), rowID) }

func (h *hashIdx) removeKey(k string, rowID int) {
	l, ok := h.m[k]
	if !ok {
		return
	}
	switch {
	case l.first != rowID:
		i := slices.Index(l.rest, rowID)
		if i < 0 {
			return
		}
		l.rest = slices.Delete(l.rest, i, i+1)
	case len(l.rest) == 0:
		delete(h.m, k)
		return
	default:
		l.first, l.rest = l.rest[0], l.rest[1:]
	}
	if len(l.rest) == 0 {
		l.rest = nil // a key back to one id holds no slice
	}
	h.m[k] = l
}

func (h *hashIdx) lookup(v Value) []int {
	l, ok := h.m[v.hashKey()]
	if !ok {
		return nil
	}
	out := make([]int, 0, 1+len(l.rest))
	return append(append(out, l.first), l.rest...)
}

// lookupOne returns one matching row id without allocating the id slice —
// the primary-key fast path, where at most one row matches.
func (h *hashIdx) lookupOne(v Value) (int, bool) {
	return h.lookupOneKey(v.hashKey())
}

// lookupOneKey is lookupOne with the hash key precomputed.
func (h *hashIdx) lookupOneKey(k string) (int, bool) {
	l, ok := h.m[k]
	return l.first, ok
}

// each invokes fn with every matching row id in insertion order, without
// allocating; fn returns false to stop early.
func (h *hashIdx) each(v Value, fn func(rowID int) bool) {
	l, ok := h.m[v.hashKey()]
	if !ok || !fn(l.first) {
		return
	}
	for _, id := range l.rest {
		if !fn(id) {
			return
		}
	}
}

func (h *hashIdx) scanRange(lo, hi *Value, fn func(Value, int) bool) error {
	return ErrTypeMismatch // hash indexes cannot range-scan
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
	size  int
}

func newSkipIdx(seed int64) *skipIdx {
	return &skipIdx{
		head:  &skipNode{next: make([]*skipNode, maxSkipLevel)},
		level: 1,
		rng:   rand.New(rand.NewSource(seed)),
	}
}

func (s *skipIdx) kind() IndexKind { return OrderedIndex }

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
	s.size++
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
	target := x.next[0]
	if target == nil || target.rowID != rowID || !target.val.Equal(v) {
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
	s.size--
}

func (s *skipIdx) lookup(v Value) []int {
	var out []int
	x := s.head
	for i := s.level - 1; i >= 0; i-- {
		for x.next[i] != nil && less(x.next[i].val, -1<<62, v, -1<<62) {
			x = x.next[i]
		}
	}
	for x = x.next[0]; x != nil; x = x.next[0] {
		c, err := x.val.Compare(v)
		if err != nil || c > 0 {
			break
		}
		if c == 0 {
			out = append(out, x.rowID)
		}
	}
	return out
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

func (s *skipIdx) scanRange(lo, hi *Value, fn func(Value, int) bool) error {
	x := s.head
	if lo != nil {
		for i := s.level - 1; i >= 0; i-- {
			for x.next[i] != nil && less(x.next[i].val, -1<<62, *lo, -1<<62) {
				x = x.next[i]
			}
		}
	}
	for x = x.next[0]; x != nil; x = x.next[0] {
		if lo != nil {
			if c, err := x.val.Compare(*lo); err == nil && c < 0 {
				continue
			}
		}
		if hi != nil {
			if c, err := x.val.Compare(*hi); err == nil && c > 0 {
				break
			}
		}
		if !fn(x.val, x.rowID) {
			break
		}
	}
	return nil
}

// Len returns the number of entries in the skip list.
func (s *skipIdx) Len() int { return s.size }
