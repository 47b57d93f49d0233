package rdbms

// Replication support: exported readers over the durable artifacts (the
// manifest chain, snapshot generations, WAL segments) that a primary uses
// to stream state to followers, the apply-side entry points a follower
// replays through, and a registry of replication holds that stops the
// checkpoint prune from deleting segments or generations a registered
// follower cursor still needs.
//
// The wire format is exactly the on-disk format: a generation is shipped
// as its tables.dat byte stream, and the WAL is shipped as the raw record
// encodings straight out of the segment files, so the follower replays
// with the same decoder recovery uses and replication can never drift
// from crash recovery.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"path/filepath"
	"slices"
	"sync"

	"repro/internal/rdbms/vfs"
)

// ErrReplDiverged reports a follower cursor that does not match the
// primary's WAL: the offset lies beyond the segment, or the bytes before
// it hash differently (the primary lost an unsynced tail to a crash and
// regrew the segment with different records). The follower must discard
// its state and run a full resync.
var ErrReplDiverged = errors.New("rdbms: replication cursor diverged from the primary WAL")

// ReplManifest describes the primary's durable state to a syncing
// follower: the snapshot-generation chain to bootstrap from, the first
// WAL segment the chain does not supersede, and the segment currently
// receiving appends.
type ReplManifest struct {
	Base     int   `json:"base"`      // base generation (0 = empty chain)
	Deltas   []int `json:"deltas"`    // delta generations, chain order
	WALFloor int   `json:"wal_floor"` // first segment to replay after the chain
	Segment  int   `json:"segment"`   // segment currently receiving appends
}

// Chain returns the generation numbers to apply, in order (empty when the
// store has never checkpointed).
func (m ReplManifest) Chain() []int {
	if m.Base == 0 {
		return nil
	}
	chain := make([]int, 0, 1+len(m.Deltas))
	chain = append(chain, m.Base)
	chain = append(chain, m.Deltas...)
	return chain
}

// StartSegment returns the WAL segment a fresh follower replays from
// after applying the chain.
func (m ReplManifest) StartSegment() int {
	if m.WALFloor > 0 {
		return m.WALFloor
	}
	return 1
}

// ReplManifest reads the durable manifest. When id is non-empty it also —
// atomically with respect to checkpoints — registers holds for id on the
// chain's generations and on every WAL segment from the floor up, so the
// prune of a checkpoint racing the follower's sync cannot delete what the
// manifest just promised. The holds are narrowed by HoldWAL as the
// follower advances and dropped by ReleaseReplHold.
func (db *DB) ReplManifest(id string) (ReplManifest, error) {
	if db.dir == "" {
		return ReplManifest{}, ErrNoDir
	}
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	base, deltas, floor, err := readManifest(db.fs, db.dir)
	if err != nil {
		return ReplManifest{}, err
	}
	m := ReplManifest{Base: base, Deltas: deltas, WALFloor: floor, Segment: db.currentSeq()}
	if id != "" {
		db.replMu.Lock()
		db.replHolds(id).wal = m.StartSegment()
		db.replHolds(id).gens = m.Chain()
		db.replMu.Unlock()
	}
	return m, nil
}

// OpenGeneration opens generation gen's serialised table stream
// (snap-NNNNNN/tables.dat) for reading. The caller must Close it.
func (db *DB) OpenGeneration(gen int) (io.ReadCloser, error) {
	if db.dir == "" {
		return nil, ErrNoDir
	}
	f, err := db.fs.OpenRead(filepath.Join(db.dir, genDirName(gen), genDataFile))
	if err != nil {
		return nil, err
	}
	return f, nil
}

// CurrentWALSegment returns the sequence number of the segment currently
// receiving appends.
func (db *DB) CurrentWALSegment() int { return db.currentSeq() }

// WALSegmentSize returns the on-disk size of segment seq.
// A pruned or never-written segment reports fs.ErrNotExist.
func (db *DB) WALSegmentSize(seq int) (int64, error) {
	if db.dir == "" {
		return 0, ErrNoDir
	}
	info, err := db.fs.Stat(filepath.Join(db.dir, segName(seq)))
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

// openSegmentAt opens WAL segment seq for positioned reads after checking
// that off lies inside it — the one read path the tail reader and the
// cursor-hash check share. A pruned or never-written segment reports
// fs.ErrNotExist; an offset past the segment's end is ErrReplDiverged. The
// caller must Close the handle.
func (db *DB) openSegmentAt(seq int, off int64) (vfs.File, error) {
	if db.dir == "" {
		return nil, ErrNoDir
	}
	f, err := db.fs.OpenRead(filepath.Join(db.dir, segName(seq)))
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	if off > info.Size() {
		_ = f.Close()
		return nil, fmt.Errorf("%w: offset %d beyond segment %d size %d", ErrReplDiverged, off, seq, info.Size())
	}
	return f, nil
}

// sliceDecoder runs readRecord — the one WAL decoder — over a byte slice
// through a reader pair that is allocated once and reset per slice.
type sliceDecoder struct {
	rd bytes.Reader
	br *bufio.Reader
}

func newSliceDecoder() *sliceDecoder {
	return &sliceDecoder{br: bufio.NewReaderSize(nil, 4096)}
}

func (d *sliceDecoder) reset(b []byte) {
	d.rd.Reset(b)
	d.br.Reset(&d.rd)
}

// consumed reports how many bytes of the slice the records decoded since
// reset occupy: what left the slice minus what still waits in the buffer.
func (d *sliceDecoder) consumed() int {
	return int(d.rd.Size()) - d.rd.Len() - d.br.Buffered()
}

// walTailChunk bounds one read of a tail poll, and is the carry buffer's
// initial size. A record larger than the buffer grows it; nothing else does.
const walTailChunk = 64 << 10

// WALTail is a forward-only reader over the WAL, the primary side of one
// follower stream: it holds a single read handle on the segment it is in
// and every Poll reads only the bytes appended since the previous one, so
// shipping costs what was written, never what the segment holds. Bytes
// that do not yet end in a whole record — one still being appended, or a
// tail abandoned by a crashed writer — wait in the carry buffer and are
// neither emitted nor read from the file again. A WALTail is not safe for
// concurrent use.
type WALTail struct {
	db    *DB
	f     vfs.File
	seq   int
	off   int64  // segment offset of carry[0]: the next unemitted boundary
	carry []byte // bytes read past off that no emitted record covers
	dec   *sliceDecoder
	// refused is set when emit failed: the carry then holds whole records
	// the next Poll must offer again even if nothing new was appended.
	refused bool
}

// OpenWALTail opens a tail reader on segment seq positioned at byte offset
// off, which must be a record boundary the caller has verified (0, or a
// cursor VerifyWALTail accepted). Errors are those of VerifyWALTail:
// fs.ErrNotExist for a pruned segment, ErrReplDiverged for an offset past
// the segment's end. The caller must Close it.
func (db *DB) OpenWALTail(seq int, off int64) (*WALTail, error) {
	f, err := db.openSegmentAt(seq, off)
	if err != nil {
		return nil, err
	}
	return &WALTail{
		db:    db,
		f:     f,
		seq:   seq,
		off:   off,
		carry: make([]byte, 0, walTailChunk),
		dec:   newSliceDecoder(),
	}, nil
}

// Poll reads whatever was appended to the segment since the last call and
// hands each complete record's raw encoding to emit, in order, exactly
// once; rec is valid only during the call. It returns the number of
// records emitted. A torn or undecodable tail is never emitted: the
// primary's own recovery machinery owns deciding what those bytes mean.
// An emit error aborts the poll and is returned; the refused record and
// everything after it are offered again by the next Poll.
func (t *WALTail) Poll(emit func(rec []byte) error) (int, error) {
	emitted := 0
	for {
		room := cap(t.carry) - len(t.carry)
		n, err := t.f.ReadAt(t.carry[len(t.carry):cap(t.carry)], t.off+int64(len(t.carry)))
		if err != nil && err != io.EOF {
			return emitted, err
		}
		t.carry = t.carry[:len(t.carry)+n]
		if n > 0 || t.refused {
			k, eerr := t.cut(emit)
			emitted += k
			if eerr != nil {
				return emitted, eerr
			}
		}
		if n < room {
			return emitted, nil // reached the segment's current end
		}
		if len(t.carry) == cap(t.carry) {
			// One unfinished record fills the buffer: make room for its rest.
			t.carry = slices.Grow(t.carry, walTailChunk)
		}
	}
}

// cut emits every whole record at the front of the carry buffer and slides
// the unfinished rest down to its start.
func (t *WALTail) cut(emit func(rec []byte) error) (int, error) {
	t.dec.reset(t.carry)
	done, emitted := 0, 0
	var err error
	for {
		if _, derr := readRecord(t.dec.br); derr != nil {
			break // clean boundary, unfinished record, or corruption: ship none of it
		}
		end := t.dec.consumed()
		if err = emit(t.carry[done:end]); err != nil {
			break
		}
		done = end
		emitted++
	}
	t.refused = err != nil
	t.off += int64(done)
	t.carry = t.carry[:copy(t.carry, t.carry[done:])]
	return emitted, err
}

// Next moves the reader to the start of the following segment, dropping
// whatever unfinished tail the drained one ended in. The caller decides
// when a segment is drained: a Poll that emitted nothing, begun after
// CurrentWALSegment had already moved past the reader's segment (rotation
// syncs the old segment before the sequence number advances). On error the
// reader is closed.
func (t *WALTail) Next() error {
	_ = t.f.Close()
	f, err := t.db.openSegmentAt(t.seq+1, 0)
	if err != nil {
		return err
	}
	t.f, t.seq, t.off, t.carry, t.refused = f, t.seq+1, 0, t.carry[:0], false
	return nil
}

// Close releases the segment handle.
func (t *WALTail) Close() error { return t.f.Close() }

// replTailHashLen bounds the cursor-alignment hash window: the follower
// hashes the last up-to-64 bytes it applied, and the primary verifies the
// same window before resuming a stream.
const replTailHashLen = 64

// WALTailHash hashes (FNV-1a, 64 bit) the n bytes of segment seq that
// precede offset off, reading only that window. Followers store this
// alongside their cursor; VerifyWALTail compares it on reconnect.
func (db *DB) WALTailHash(seq int, off int64, n int) (uint64, error) {
	if n < 0 || n > replTailHashLen || int64(n) > off {
		return 0, fmt.Errorf("%w: tail window %d at offset %d (limit %d)", ErrReplDiverged, n, off, replTailHashLen)
	}
	f, err := db.openSegmentAt(seq, off)
	if err != nil {
		return 0, err
	}
	defer func() { _ = f.Close() }()
	var win [replTailHashLen]byte
	if n > 0 {
		if _, err := f.ReadAt(win[:n], off-int64(n)); err != nil {
			return 0, fmt.Errorf("read tail window of segment %d: %w", seq, err)
		}
	}
	h := fnv.New64a()
	_, _ = h.Write(win[:n])
	return h.Sum64(), nil
}

// VerifyWALTail checks that a follower cursor (seg, off, hash-of-last-n-
// bytes) still matches this primary's WAL. It returns nil when the
// follower may resume streaming from (seg, off); ErrReplDiverged when the
// primary's history disagrees (the follower must full-resync); and
// fs.ErrNotExist when the segment has been pruned (ditto).
func (db *DB) VerifyWALTail(seq int, off int64, n int, sum uint64) error {
	got, err := db.WALTailHash(seq, off, n)
	if err != nil {
		return err
	}
	if n > 0 && got != sum {
		return fmt.Errorf("%w: tail hash mismatch at segment %d offset %d", ErrReplDiverged, seq, off)
	}
	return nil
}

// replDecoders pools the reader pair ApplyReplRecord decodes through, so
// applying a record allocates what the record holds and nothing else.
var replDecoders = sync.Pool{New: func() any { return newSliceDecoder() }}

// ApplyReplRecord decodes exactly one replicated WAL record and applies
// it with recovery (loose) semantics, which makes re-application after a
// reconnect idempotent. Trailing bytes after the record are corruption.
func (db *DB) ApplyReplRecord(rec []byte) error {
	d := replDecoders.Get().(*sliceDecoder)
	d.reset(rec)
	r, err := readRecord(d.br)
	whole := d.consumed() == len(rec)
	d.reset(nil) // the pool must not pin the caller's buffer
	replDecoders.Put(d)
	if err != nil {
		return fmt.Errorf("replicated record: %w", ErrCorrupt)
	}
	if !whole {
		return fmt.Errorf("replicated record has trailing bytes: %w", ErrCorrupt)
	}
	return applyRecord(db, r, true)
}

// ApplyGenerationStream replays a snapshot-generation byte stream (as
// served by OpenGeneration) onto the database — the initial-sync path of
// a follower. Tables are created as recorded (including partition counts)
// and existing tables have the streamed stripes reset and reloaded.
func (db *DB) ApplyGenerationStream(r io.Reader) error {
	return applyGeneration(db, r)
}

// ResetTables clears every stripe of every table in place, leaving the
// tables, schemas and index definitions intact (and every handle held by
// callers valid). A follower uses it to discard divergent state before a
// full resync.
func (db *DB) ResetTables() {
	for _, t := range db.tablesSorted() {
		for pi := range t.parts {
			t.resetPartition(pi)
		}
	}
}

// replHold records what one follower still needs on disk.
type replHold struct {
	wal  int   // lowest WAL segment still needed (0 = none)
	gens []int // snapshot generations being served for initial sync
}

// replHolds returns (allocating as needed) the hold entry for id.
// Caller must hold db.replMu.
func (db *DB) replHolds(id string) *replHold {
	if db.replHold == nil {
		db.replHold = make(map[string]*replHold)
	}
	h, ok := db.replHold[id]
	if !ok {
		h = &replHold{}
		db.replHold[id] = h
	}
	return h
}

// HoldWAL pins WAL segments >= seq against checkpoint pruning on behalf
// of follower id, and releases any generation holds id registered (a
// follower streaming the WAL is past its initial sync). Advancing
// followers call it again with a higher seq to narrow the hold.
func (db *DB) HoldWAL(id string, seq int) {
	db.replMu.Lock()
	h := db.replHolds(id)
	h.wal = seq
	h.gens = nil
	db.replMu.Unlock()
}

// ReleaseReplHold drops every hold registered for follower id.
func (db *DB) ReleaseReplHold(id string) {
	db.replMu.Lock()
	delete(db.replHold, id)
	db.replMu.Unlock()
}

// minHeldWALSeq returns the lowest WAL segment any registered follower
// still needs (0 = no holds).
func (db *DB) minHeldWALSeq() int {
	db.replMu.Lock()
	defer db.replMu.Unlock()
	min := 0
	for _, h := range db.replHold {
		if h.wal > 0 && (min == 0 || h.wal < min) {
			min = h.wal
		}
	}
	return min
}

// heldGenerations returns the set of generation numbers still being
// served to syncing followers.
func (db *DB) heldGenerations() map[int]bool {
	db.replMu.Lock()
	defer db.replMu.Unlock()
	var held map[int]bool
	for _, h := range db.replHold {
		for _, g := range h.gens {
			if held == nil {
				held = make(map[int]bool)
			}
			held[g] = true
		}
	}
	return held
}
