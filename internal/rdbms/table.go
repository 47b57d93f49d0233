package rdbms

import (
	"fmt"
	"sync"
)

// DefaultPartitions is the partition count tables are created with when the
// database options do not say otherwise. Power of two so the pk-hash modulo
// is cheap, and wide enough that the platform's stream shards stop
// serialising on one table lock.
const DefaultPartitions = 8

// MaxPartitions caps a table's stripe count. It matches the WAL/snapshot
// decoder's corruption guard, so a partition count the writer accepts is
// always one recovery accepts.
const MaxPartitions = 1 << 16

// Table is a heap-organised table sharded into P lock-striped partitions by
// primary-key hash. Every partition owns its own heap, primary-key index
// and secondary-index shards, so point reads and writes on different keys
// proceed in parallel; range scans merge the per-partition ordered indexes
// back into one ascending stream. All methods are safe for concurrent use.
type Table struct {
	name   string
	schema *Schema
	wal    *WAL // optional; set by DB
	m      *metrics

	parts []*partition

	// idxMu guards the table-level index metadata; the per-partition index
	// structures themselves are guarded by their partition's lock.
	idxMu   sync.RWMutex
	idxMeta map[string]IndexKind
	idxSeed int64
}

// partition is one lock stripe: a heap slice plus the index shards for the
// rows that hash here.
type partition struct {
	mu      sync.RWMutex
	heap    []Row // slot id -> row; nil = deleted slot
	free    []int // recycled slots
	pkIdx   *hashIdx
	indexes map[string]index // column name -> secondary index shard
	rows    int

	// Dirty tracking for incremental checkpoints: epoch is bumped (under
	// the partition write lock) by every mutation landing in this stripe;
	// snapEpoch is the epoch value at the moment the last installed
	// snapshot generation captured the stripe. epoch != snapEpoch means
	// the stripe has changes no generation holds yet. A new partition is
	// born dirty (epoch 1, snapEpoch 0) so an empty table still reaches
	// its first generation — its WAL DDL record is pruned by the
	// checkpoint.
	epoch     uint64
	snapEpoch uint64
}

// newTable builds a table with the given partition count (<= 0 means
// DefaultPartitions; capped at MaxPartitions).
func newTable(name string, schema *Schema, parts int, wal *WAL, m *metrics) *Table {
	if parts <= 0 {
		parts = DefaultPartitions
	}
	if parts > MaxPartitions {
		parts = MaxPartitions
	}
	t := &Table{
		name:    name,
		schema:  schema,
		wal:     wal,
		m:       m,
		parts:   make([]*partition, parts),
		idxMeta: make(map[string]IndexKind),
	}
	for i := range t.parts {
		p := &partition{
			indexes: make(map[string]index),
			epoch:   1, // born dirty: see partition.epoch
		}
		p.pkIdx = newHashIdx(&p.heap, schema.PK)
		t.parts[i] = p
	}
	return t
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *Schema { return t.schema }

// Partitions returns the table's lock-stripe count.
func (t *Table) Partitions() int { return len(t.parts) }

// partForKey routes a primary key, by its hash32, to its partition index:
// the hot paths hash the key once and reuse the word for both routing and
// the pk index.
func (t *Table) partForKey(h uint32) int { return int(h % uint32(len(t.parts))) }

// Len returns the number of live rows.
func (t *Table) Len() int {
	n := 0
	for _, p := range t.parts {
		p.mu.RLock()
		n += p.rows
		p.mu.RUnlock()
	}
	return n
}

// CreateIndex adds a secondary index on the named column, sharded across
// the table's partitions. Indexing an already-indexed column returns
// ErrExists. Existing rows are indexed immediately; the build takes a
// whole-table barrier (all partition locks), so it is atomic with respect
// to concurrent writers.
func (t *Table) CreateIndex(col string, kind IndexKind) error {
	ci, err := t.schema.ColIndex(col)
	if err != nil {
		return err
	}
	if kind != HashIndex && kind != OrderedIndex {
		return fmt.Errorf("unknown index kind %d: %w", kind, ErrSchema)
	}
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	if _, dup := t.idxMeta[col]; dup {
		return fmt.Errorf("index on %q: %w", col, ErrExists)
	}
	for _, p := range t.parts {
		p.mu.Lock()
	}
	defer func() {
		for _, p := range t.parts {
			p.mu.Unlock()
		}
	}()
	if t.wal != nil {
		if err := t.wal.append(walRecord{Op: walCreateIndex, Table: t.name, Col: col, Kind: kind}); err != nil {
			return err
		}
	}
	for _, p := range t.parts {
		idx := t.newIndex(p, ci, kind)
		for slot, row := range p.heap {
			if row != nil {
				idx.insert(row[ci], slot)
			}
		}
		p.indexes[col] = idx
		// DDL dirties the whole table: the index definition lives in the
		// per-table generation header, and its WAL record is pruned by the
		// next checkpoint, so every stripe must be re-captured.
		p.epoch++
	}
	t.idxMeta[col] = kind
	return nil
}

// newIndex builds an empty shard of a secondary index on column ci for
// partition p. Caller holds idxMu.
func (t *Table) newIndex(p *partition, ci int, kind IndexKind) index {
	if kind == OrderedIndex {
		t.idxSeed++
		return newSkipIdx(t.idxSeed)
	}
	return newHashIdx(&p.heap, ci)
}

// IndexKindOf reports the kind of the secondary index on col, and whether
// one exists.
func (t *Table) IndexKindOf(col string) (IndexKind, bool) {
	t.idxMu.RLock()
	defer t.idxMu.RUnlock()
	kind, ok := t.idxMeta[col]
	return kind, ok
}

// Insert adds a row; the primary key must be unique. It returns the heap
// slot id within the row's partition. The table stores a copy: the caller
// keeps r.
func (t *Table) Insert(r Row) (int, error) { return t.insertOwned(r.Clone()) }

// insertOwned is Insert for a row nobody else holds — one the WAL,
// generation or replication decoder has just allocated — which the table
// keeps as is instead of copying. The same goes for upsertOwned and
// every *Locked helper below: r is the table's from here.
func (t *Table) insertOwned(r Row) (int, error) {
	if err := t.schema.Validate(r); err != nil {
		return 0, err
	}
	h := r[t.schema.PK].hash32()
	p := t.parts[t.partForKey(h)]
	t.lockPart(p)
	defer p.mu.Unlock()
	return t.insertLocked(p, h, r, true)
}

// insertLocked adds r to p; pkTag is the hash32 of r's primary key. Caller
// holds p's write lock.
func (t *Table) insertLocked(p *partition, pkTag uint32, r Row, logWAL bool) (int, error) {
	pk := r[t.schema.PK]
	if _, dup := p.pkIdx.lookupOneTag(pkTag, pk); dup {
		return 0, fmt.Errorf("pk %v: %w", pk, ErrDuplicate)
	}
	if len(p.free) == 0 && len(p.heap) >= maxStripeRows {
		return 0, fmt.Errorf("rdbms: table %q: a stripe is full at %d rows", t.name, maxStripeRows)
	}
	// Write-ahead: the record must reach the log before the in-memory
	// apply, so a failed append aborts the insert instead of acknowledging
	// an unlogged row.
	if logWAL && t.wal != nil {
		if err := t.wal.append(walRecord{Op: walInsert, Table: t.name, Row: r}); err != nil {
			return 0, err
		}
	}
	var slot int
	if n := len(p.free); n > 0 {
		slot = p.free[n-1]
		p.free = p.free[:n-1]
		p.heap[slot] = r
	} else {
		slot = len(p.heap)
		p.heap = append(p.heap, r)
	}
	// The heap slot is written: the indexes may now point at it.
	p.pkIdx.insertTag(pkTag, slot)
	for col, idx := range p.indexes {
		ci, _ := t.schema.ColIndex(col)
		idx.insert(r[ci], slot)
	}
	p.rows++
	p.epoch++
	return slot, nil
}

// Get returns the row with the given primary key.
func (t *Table) Get(pk Value) (Row, error) {
	h := pk.hash32()
	p := t.parts[t.partForKey(h)]
	p.mu.RLock()
	defer p.mu.RUnlock()
	id, ok := p.pkIdx.lookupOneTag(h, pk)
	if !ok {
		return nil, fmt.Errorf("pk %v: %w", pk, ErrNotFound)
	}
	return p.heap[id].Clone(), nil
}

// View invokes fn with the row stored under the given primary key, under
// the row's partition read lock and without cloning — the zero-allocation
// read path for real-time request serving. fn must not retain or modify the
// row (or any value inside it) after returning.
func (t *Table) View(pk Value, fn func(Row)) error {
	h := pk.hash32()
	p := t.parts[t.partForKey(h)]
	p.mu.RLock()
	defer p.mu.RUnlock()
	id, ok := p.pkIdx.lookupOneTag(h, pk)
	if !ok {
		return fmt.Errorf("pk %v: %w", pk, ErrNotFound)
	}
	fn(p.heap[id])
	return nil
}

// ViewEq invokes fn with each row whose indexed column equals v, under the
// owning partition's read lock and without cloning; fn returns false to
// stop early. The column must have a hash index. fn must not retain or
// modify rows after returning.
func (t *Table) ViewEq(col string, v Value, fn func(Row) bool) error {
	kind, ok := t.IndexKindOf(col)
	if !ok {
		return fmt.Errorf("no index on %q: %w", col, ErrNotFound)
	}
	if kind != HashIndex {
		return fmt.Errorf("index on %q is not a hash index: %w", col, ErrTypeMismatch)
	}
	tag := v.hash32()
	for _, p := range t.parts {
		p.mu.RLock()
		h, _ := p.indexes[col].(*hashIdx)
		stopped := false
		if h != nil {
			h.eachTag(tag, v, func(id int) bool {
				if !fn(p.heap[id]) {
					stopped = true
					return false
				}
				return true
			})
		}
		p.mu.RUnlock()
		if stopped {
			return nil
		}
	}
	return nil
}

// updateLocked replaces the row in heap slot slot of p with r, which
// carries the same primary key (a row keeps its key, see Mutate). Caller
// holds p's write lock. The pk index probes rows by key, so it still
// describes the slot; only the secondary indexes whose column changed —
// by the hash index's identity, under which -0 is not 0 — are touched.
func (t *Table) updateLocked(p *partition, slot int, pk Value, r Row) error {
	old := p.heap[slot]
	// Write-ahead: log before touching indexes or the heap.
	if t.wal != nil {
		if err := t.wal.append(walRecord{Op: walUpdate, Table: t.name, Key: pk, Row: r}); err != nil {
			return err
		}
	}
	for col, idx := range p.indexes {
		ci, _ := t.schema.ColIndex(col)
		if !old[ci].sameKey(r[ci]) {
			idx.remove(old[ci], slot)
			idx.insert(r[ci], slot)
		}
	}
	p.heap[slot] = r
	p.epoch++
	return nil
}

// Mutate atomically transforms the row stored under the given primary key:
// the read, the transformation and the write happen under one acquisition
// of the row's partition write lock, so no concurrent writer can interleave
// between them (the lost-update hazard of a separate Get + Update pair). fn
// runs exactly once, on a clone of the stored row, and returns the
// replacement — it may modify and return its argument. Returning an error
// aborts the mutation without writing; the error is returned unwrapped so
// callers can signal "no change needed" cheaply. A row keeps its primary
// key: a replacement under any other key (by the pk index's identity, so
// -0 is not 0) is refused with an error wrapping ErrSchema, and nothing is
// written. To re-key a row, Delete it and Insert the new one.
func (t *Table) Mutate(pk Value, fn func(Row) (Row, error)) error {
	h := pk.hash32()
	p := t.parts[t.partForKey(h)]
	t.lockPart(p)
	defer p.mu.Unlock()
	slot, ok := p.pkIdx.lookupOneTag(h, pk)
	if !ok {
		return fmt.Errorf("pk %v: %w", pk, ErrNotFound)
	}
	r, err := fn(p.heap[slot].Clone())
	if err != nil {
		return err
	}
	if err := t.schema.Validate(r); err != nil {
		return err
	}
	if newPK := r[t.schema.PK]; !newPK.sameKey(pk) {
		return fmt.Errorf("mutate of pk %v returned pk %v, a row keeps its key: %w", pk, newPK, ErrSchema)
	}
	return t.updateLocked(p, slot, pk, r.Clone())
}

// Delete removes the row with the given primary key.
func (t *Table) Delete(pk Value) error {
	h := pk.hash32()
	p := t.parts[t.partForKey(h)]
	t.lockPart(p)
	defer p.mu.Unlock()
	slot, ok := p.pkIdx.lookupOneTag(h, pk)
	if !ok {
		return fmt.Errorf("pk %v: %w", pk, ErrNotFound)
	}
	// Write-ahead: log before removing the row.
	if t.wal != nil {
		if err := t.wal.append(walRecord{Op: walDelete, Table: t.name, Key: pk}); err != nil {
			return err
		}
	}
	old := p.heap[slot]
	p.pkIdx.removeTag(h, slot)
	for col, idx := range p.indexes {
		ci, _ := t.schema.ColIndex(col)
		idx.remove(old[ci], slot)
	}
	p.heap[slot] = nil
	p.free = append(p.free, slot)
	p.rows--
	p.epoch++
	return nil
}

// Upsert inserts the row, or updates it if the primary key exists. The key
// routes to one partition either way, so the whole operation is one stripe
// lock acquisition. The table stores a copy: the caller keeps r.
func (t *Table) Upsert(r Row) error { return t.upsertOwned(r.Clone()) }

func (t *Table) upsertOwned(r Row) error {
	if err := t.schema.Validate(r); err != nil {
		return err
	}
	pk := r[t.schema.PK]
	h := pk.hash32()
	p := t.parts[t.partForKey(h)]
	t.lockPart(p)
	defer p.mu.Unlock()
	if slot, ok := p.pkIdx.lookupOneTag(h, pk); ok {
		return t.updateLocked(p, slot, pk, r)
	}
	_, err := t.insertLocked(p, h, r, true)
	return err
}

// Scan calls fn for every live row (clone). Returning false stops the scan.
// The iteration order is partition order then heap order, not key order.
// Each partition is consistent under its read lock; a scan concurrent with
// writers observes every partition at a (possibly different) instant.
func (t *Table) Scan(fn func(Row) bool) {
	for _, p := range t.parts {
		p.mu.RLock()
		for _, row := range p.heap {
			if row == nil {
				continue
			}
			if !fn(row.Clone()) {
				p.mu.RUnlock()
				return
			}
		}
		p.mu.RUnlock()
	}
}

// Range calls fn for every row whose indexed column lies in [lo, hi]
// (inclusive, nil = open), ascending by that column. The column must have
// an ordered index. The per-partition ordered shards are merged into one
// ascending stream under a whole-table read barrier (all partition read
// locks), so the scan sees a consistent snapshot.
func (t *Table) Range(col string, lo, hi *Value, fn func(Row) bool) error {
	kind, ok := t.IndexKindOf(col)
	if !ok {
		return fmt.Errorf("no index on %q: %w", col, ErrNotFound)
	}
	if kind != OrderedIndex {
		return fmt.Errorf("index on %q is not ordered: %w", col, ErrTypeMismatch)
	}
	for _, p := range t.parts {
		p.mu.RLock()
	}
	defer func() {
		for _, p := range t.parts {
			p.mu.RUnlock()
		}
	}()
	// One cursor per partition, positioned at the first candidate node;
	// each step emits the globally smallest (value, partition, rowID).
	cursors := make([]*skipNode, len(t.parts))
	for i, p := range t.parts {
		if sk, ok := p.indexes[col].(*skipIdx); ok {
			cursors[i] = sk.seek(lo)
		}
	}
	for {
		best := -1
		for i, c := range cursors {
			if c == nil {
				continue
			}
			if best < 0 || mergeLess(c.val, i, c.rowID, cursors[best].val, best, cursors[best].rowID) {
				best = i
			}
		}
		if best < 0 {
			return nil
		}
		node := cursors[best]
		cursors[best] = node.next[0]
		if lo != nil {
			if c, err := node.val.Compare(*lo); err == nil && c < 0 {
				continue
			}
		}
		if hi != nil {
			if c, err := node.val.Compare(*hi); err == nil && c > 0 {
				return nil // merged stream is ascending: nothing later fits
			}
		}
		if !fn(t.parts[best].heap[node.rowID].Clone()) {
			return nil
		}
	}
}

// mergeLess orders merge candidates by (value, partition, rowID); mixed
// kinds (prevented by schema validation) fall back to kind order.
func mergeLess(av Value, ai, aid int, bv Value, bi, bid int) bool {
	c, err := av.Compare(bv)
	if err != nil {
		return av.Kind() < bv.Kind()
	}
	if c != 0 {
		return c < 0
	}
	if ai != bi {
		return ai < bi
	}
	return aid < bid
}

// partCut records one partition captured by a snapshot generation: its
// index and the epoch observed under the capture barrier. The epochs are
// committed to snapEpoch only after the generation's manifest is
// installed, so a failed checkpoint leaves every stripe dirty.
type partCut struct {
	part  int
	epoch uint64
}

// markClean commits captured epochs after a generation install: each
// stripe's snapEpoch advances to the epoch the capture observed. Writes
// that landed after the capture have already bumped epoch further, so the
// stripe correctly stays dirty for the next checkpoint.
func (t *Table) markClean(cuts []partCut) {
	for _, c := range cuts {
		p := t.parts[c.part]
		p.mu.Lock()
		p.snapEpoch = c.epoch
		p.mu.Unlock()
	}
}

// markAllClean aligns every stripe's snapEpoch with its current epoch —
// recovery calls it after applying the snapshot generations, before WAL
// replay, so only stripes the log actually touches start dirty.
func (t *Table) markAllClean() {
	for _, p := range t.parts {
		p.mu.Lock()
		p.snapEpoch = p.epoch
		p.mu.Unlock()
	}
}

// dirtyParts counts stripes with changes no generation holds yet.
func (t *Table) dirtyParts() int {
	n := 0
	for _, p := range t.parts {
		p.mu.RLock()
		if p.epoch != p.snapEpoch {
			n++
		}
		p.mu.RUnlock()
	}
	return n
}

// resetPartition replaces stripe pi with an empty one carrying fresh index
// shards — the delta-apply primitive: a generation's partition payload
// fully replaces the stripe's previous contents.
func (t *Table) resetPartition(pi int) {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	p := t.parts[pi]
	t.lockPart(p)
	defer p.mu.Unlock()
	p.heap = nil
	p.free = nil
	p.rows = 0
	p.pkIdx = newHashIdx(&p.heap, t.schema.PK)
	p.indexes = make(map[string]index, len(t.idxMeta))
	for col, kind := range t.idxMeta {
		ci, _ := t.schema.ColIndex(col)
		p.indexes[col] = t.newIndex(p, ci, kind)
	}
	p.epoch++
}

// insertIntoPartition inserts a recovered row directly into stripe pi,
// verifying the row actually routes there — a mismatch means the
// generation file lies about its partition layout.
func (t *Table) insertIntoPartition(pi int, r Row) error {
	if err := t.schema.Validate(r); err != nil {
		return err
	}
	h := r[t.schema.PK].hash32()
	if got := t.partForKey(h); got != pi {
		return fmt.Errorf("row for partition %d routes to %d: %w", pi, got, ErrCorrupt)
	}
	p := t.parts[pi]
	t.lockPart(p)
	defer p.mu.Unlock()
	_, err := t.insertLocked(p, h, r, false)
	return err
}
