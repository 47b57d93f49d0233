package rdbms

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"time"

	"repro/internal/rdbms/vfs"
)

// WAL op codes.
const (
	walInsert byte = iota + 1
	walUpdate
	walDelete
	walCommit
	walCreateTable
	walCreateIndex
	walDropTable
)

// ErrCorrupt is returned when a WAL record cannot be decoded, or a
// snapshot generation cannot be decoded or applied.
var ErrCorrupt = errors.New("rdbms: corrupt WAL")

// ErrWALBroken is returned by mutations after a WAL append failed to reach
// the OS (disk full, I/O error): the log may end in a torn record, so
// further appends are refused — writes fail instead of being silently
// acknowledged without durability. A successful Checkpoint repairs the
// condition: rotation starts a clean segment and the snapshot captures the
// in-memory state the broken segment could not log.
var ErrWALBroken = errors.New("rdbms: write-ahead log broken (append failed)")

// FsyncPolicy selects when WAL appends are fsynced to stable storage. All
// policies flush every record to the OS write-ahead (a process crash never
// loses an acknowledged write); the policy governs the power-loss window.
type FsyncPolicy int

const (
	// FsyncCheckpoint (the default) fsyncs only at checkpoint, rotation
	// and close — the cheapest policy; a power loss can drop everything
	// since the last checkpoint.
	FsyncCheckpoint FsyncPolicy = iota
	// FsyncIntervalPolicy fsyncs on a fixed cadence from one background
	// flusher goroutine; a power loss drops at most one interval of
	// acknowledged writes. Appenders never wait.
	FsyncIntervalPolicy
	// FsyncAlways gives per-commit durability: every append parks until an
	// fsync covers its record. A single flusher goroutine batches all
	// concurrently parked appenders onto one fsync (group commit), so the
	// cost is one fsync per batch, not one per writer.
	FsyncAlways
)

// String renders the policy in the form ParseFsyncPolicy accepts.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncIntervalPolicy:
		return "interval"
	case FsyncAlways:
		return "always"
	default:
		return "checkpoint"
	}
}

// DefaultFsyncInterval is the flush cadence of FsyncIntervalPolicy when the
// options do not name one.
const DefaultFsyncInterval = 100 * time.Millisecond

// ParseFsyncPolicy parses an operator-facing policy string: "checkpoint",
// "always", "interval" (default cadence) or "interval:<duration>" (e.g.
// "interval:25ms").
func ParseFsyncPolicy(s string) (FsyncPolicy, time.Duration, error) {
	switch {
	case s == "" || s == "checkpoint":
		return FsyncCheckpoint, 0, nil
	case s == "always":
		return FsyncAlways, 0, nil
	case s == "interval":
		return FsyncIntervalPolicy, DefaultFsyncInterval, nil
	case strings.HasPrefix(s, "interval:"):
		d, err := time.ParseDuration(strings.TrimPrefix(s, "interval:"))
		if err != nil || d <= 0 {
			return 0, 0, fmt.Errorf("rdbms: bad fsync interval %q", s)
		}
		return FsyncIntervalPolicy, d, nil
	default:
		return 0, 0, fmt.Errorf("rdbms: unknown fsync policy %q (want checkpoint, interval[:dur] or always)", s)
	}
}

// walRecord is one log record. Insert carries Row; Update carries Key (the
// old pk) and Row; Delete carries Key; Commit carries nothing. CreateTable
// carries the schema columns, pk name and partition count; CreateIndex
// carries the column and kind; DropTable carries only the table name — the
// WAL logs DDL as well as data, so a log alone (no snapshot yet) can
// rebuild a database from scratch.
type walRecord struct {
	Op    byte
	Table string
	Key   Value
	Row   Row

	// DDL payloads.
	Cols   []Column
	PKName string
	Parts  int
	Col    string
	Kind   IndexKind
}

// WAL is a write-ahead log over one segment file at a time: every table
// mutation is appended as a binary record before the call returns, and
// recovery replays the segments onto the last checkpoint. The WAL is safe
// for concurrent appends. Each record is flushed to the OS as it is
// appended, so a process crash loses at most the record being written —
// the torn tail that recovery truncates.
type WAL struct {
	mu      sync.Mutex
	w       *bufio.Writer
	f       vfs.File // nil once closed or abandoned
	records int
	bytes   int64
	broken  bool // an append failed: the tail may be torn, refuse appends

	// Group-commit state (file-backed WALs with a non-checkpoint policy).
	policy      FsyncPolicy
	interval    time.Duration
	durable     int        // record count covered by the last fsync
	failedBelow int        // records ≤ this were abandoned with a torn tail
	closed      bool       // closeFile/Abandon ran: flusher must exit
	syncCond    *sync.Cond // broadcast when durable advances or the WAL breaks
	flushCond   *sync.Cond // signalled when the always-flusher has work
	quit        chan struct{}
	stopOnce    sync.Once

	// fsyncs counts the flusher's fsyncs, empty ones included; the records
	// they committed are the sum of m.walGroupCommit.
	fsyncs uint64
	m      *metrics
}

// newWALFile wraps an open segment file as a WAL with the given fsync
// policy, recording into m. FsyncIntervalPolicy and FsyncAlways start one
// background flusher goroutine; it exits when the WAL is closed.
func newWALFile(f vfs.File, policy FsyncPolicy, interval time.Duration, m *metrics) *WAL {
	l := &WAL{w: bufio.NewWriterSize(f, 1<<16), f: f, policy: policy, interval: interval, m: m}
	l.syncCond = sync.NewCond(&l.mu)
	l.flushCond = sync.NewCond(&l.mu)
	switch policy {
	case FsyncIntervalPolicy:
		if l.interval <= 0 {
			l.interval = DefaultFsyncInterval
		}
		l.quit = make(chan struct{})
		go l.intervalFlusher()
	case FsyncAlways:
		go l.alwaysFlusher()
	}
	return l
}

// Policy reports the WAL's fsync policy.
func (l *WAL) Policy() FsyncPolicy {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.policy
}

// FsyncStats reports the flusher's fsync count and the number of records
// those fsyncs committed (their ratio is the achieved group-commit batch).
func (l *WAL) FsyncStats() (fsyncs, records uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.fsyncs, uint64(l.m.walGroupCommit.Sum())
}

// syncPending commits everything appended so far with one flush+fsync and
// advances the durable watermark. The caller holds l.mu; the buffered
// flush runs under it, but the mutex is RELEASED for the disk fsync so
// appenders keep appending (and parking) while the fsync is in flight —
// that overlap is what builds group-commit batches, and it keeps every
// table mutation from stalling behind a disk write. Returns with l.mu
// held. A rotation or close racing the unlocked fsync supersedes its
// outcome: the rotate/close path fsyncs (or abandons) the old segment
// itself and advances the watermark, so a stale handle's result —
// including an EBADF from the concurrently closed file — is discarded.
func (l *WAL) syncPending() {
	target := l.records
	if err := l.w.Flush(); err != nil {
		// Parked appenders observe broken and fail their mutations.
		l.broken = true
		l.syncCond.Broadcast()
		return
	}
	f := l.f
	if f == nil {
		if target > l.durable {
			l.durable = target
		}
		l.syncCond.Broadcast()
		return
	}
	l.mu.Unlock()
	fsyncStart := time.Now() //scilint:ignore determinism fsync latency is operator telemetry, not replayed state
	err := f.Sync()
	l.m.walFsync.ObserveDuration(time.Since(fsyncStart)) //scilint:ignore determinism fsync latency is operator telemetry, not replayed state
	l.mu.Lock()
	if l.f != f {
		return // rotated or closed mid-fsync: outcome superseded
	}
	if err != nil {
		l.broken = true
		l.syncCond.Broadcast()
		return
	}
	l.fsyncs++
	if target > l.durable {
		l.m.walGroupCommit.Observe(int64(target - l.durable))
		l.durable = target
	}
	l.syncCond.Broadcast()
}

// alwaysFlusher is the FsyncAlways group-commit loop: it wakes when
// appenders have parked records, commits everything appended so far with
// one flush+fsync, and broadcasts the new durable watermark. Appenders
// that arrive while an fsync is in flight park and ride the next one —
// N concurrent writers cost one fsync, not N.
func (l *WAL) alwaysFlusher() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		for !l.closed && (l.broken || l.durable >= l.records) {
			l.flushCond.Wait()
		}
		if l.closed {
			return
		}
		l.syncPending()
	}
}

// intervalFlusher fsyncs pending records on a fixed cadence, bounding the
// power-loss window to one interval without any appender ever waiting.
func (l *WAL) intervalFlusher() {
	t := time.NewTicker(l.interval)
	defer t.Stop()
	for {
		select {
		case <-l.quit:
			return
		case <-t.C:
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			return
		}
		if !l.broken && l.records > l.durable && l.f != nil {
			l.syncPending()
		}
		l.mu.Unlock()
	}
}

// stopFlusher shuts the background flusher down (idempotent).
func (l *WAL) stopFlusher() {
	l.stopOnce.Do(func() {
		if l.quit != nil {
			close(l.quit)
		}
	})
	l.flushCond.Broadcast()
	l.syncCond.Broadcast()
}

// Records returns the number of records appended so far.
func (l *WAL) Records() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records
}

// Bytes returns the number of bytes written so far.
func (l *WAL) Bytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytes
}

// rotate atomically redirects subsequent appends to f, returning the
// previous file (flushed and fsynced) for the caller to close. Used by the
// checkpoint cycle: records racing the rotation land in exactly one of the
// two segments. Rotating a broken WAL skips the old segment's flush (its
// tail is already torn; the snapshot the checkpoint is about to write
// supersedes it) and clears the broken state — the new segment is clean.
func (l *WAL) rotate(f vfs.File) (vfs.File, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.broken {
		if err := l.w.Flush(); err != nil {
			return nil, err
		}
		if l.f != nil {
			if err := l.f.Sync(); err != nil {
				return nil, err
			}
		}
	}
	if l.broken {
		// The torn tail is abandoned with the old segment: any group-commit
		// waiter still parked on it must fail rather than ride a later
		// watermark — its record exists nowhere the recovery path reads.
		l.failedBelow = l.records
	}
	old := l.f
	l.f = f
	l.w = bufio.NewWriterSize(f, 1<<16)
	l.broken = false
	// Everything appended so far lives in the old segment (fsynced above)
	// or was abandoned with the torn tail: the new segment starts with
	// nothing pending.
	l.durable = l.records
	l.syncCond.Broadcast()
	return old, nil
}

// append encodes one record and makes it durable per the fsync policy
// before returning — write-ahead: callers log first and apply the
// in-memory mutation only on success, so an acknowledged write is always
// recoverable. Under FsyncCheckpoint and
// FsyncIntervalPolicy the record is flushed to the OS (the disk fsync
// happens at checkpoint or on the flusher cadence); under FsyncAlways the
// append parks until the flusher's next group fsync covers its record. A
// flush or fsync failure marks the WAL broken and fails this and every
// later append until a checkpoint rotates onto a clean segment.
func (l *WAL) append(rec walRecord) error {
	start := time.Now()                                                 //scilint:ignore determinism append latency is operator telemetry, not replayed state
	defer func() { l.m.walAppend.ObserveDuration(time.Since(start)) }() //scilint:ignore determinism append latency is operator telemetry, not replayed state
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken || l.closed {
		// Closed WALs refuse appends: acknowledging a write the released
		// segment file can never hold would trade durability for silence.
		return ErrWALBroken
	}
	n := writeRecord(l.w, rec)
	l.records++
	l.bytes += int64(n)
	if l.policy == FsyncAlways {
		// Group commit: park on the committed-record watermark. The
		// flusher batches every appender parked here onto one fsync. The
		// failedBelow check comes first: a broken-WAL rotation abandons the
		// torn tail, and a record abandoned there must fail even though the
		// rotation advances the watermark past it.
		//
		// Callers append while holding the row's partition write lock, so
		// under this policy a stripe's mutation becomes visible to readers
		// only once it is durable — a reader can never observe a row that
		// a power loss could retract. The cost is that reads of a stripe
		// with an in-flight commit wait out the fsync; releasing the
		// stripe lock before parking (visible-before-durable) is a
		// deliberate non-goal here.
		lsn := l.records
		l.flushCond.Signal()
		for {
			if lsn <= l.failedBelow {
				return ErrWALBroken
			}
			if l.durable >= lsn {
				return nil
			}
			if l.broken || l.closed {
				return ErrWALBroken
			}
			l.syncCond.Wait()
		}
	}
	if err := l.w.Flush(); err != nil {
		l.broken = true
		return fmt.Errorf("%w: %v", ErrWALBroken, err)
	}
	return nil
}

// writeRecord encodes one record; returns bytes written. Write errors on an
// in-memory buffer cannot occur; on real files the bufio layer reports them
// at Flush.
func writeRecord(w *bufio.Writer, rec walRecord) int {
	n := 0
	w.WriteByte(rec.Op)
	n++
	n += writeString(w, rec.Table)
	switch rec.Op {
	case walInsert:
		n += writeRow(w, rec.Row)
	case walUpdate:
		n += writeValue(w, rec.Key)
		n += writeRow(w, rec.Row)
	case walDelete:
		n += writeValue(w, rec.Key)
	case walCreateTable:
		n += writeUvarint(w, uint64(rec.Parts))
		n += writeColumns(w, rec.Cols)
		n += writeString(w, rec.PKName)
	case walCreateIndex:
		n += writeString(w, rec.Col)
		w.WriteByte(byte(rec.Kind))
		n++
	}
	return n
}

// writeUvarint and writeValue encode into the writer's own free space
// (AvailableBuffer) and Write that: a local scratch array passed to Write
// escapes and costs one heap allocation per numeric cell.
func writeUvarint(w *bufio.Writer, v uint64) int {
	b := binary.AppendUvarint(w.AvailableBuffer(), v)
	w.Write(b)
	return len(b)
}

func writeString(w *bufio.Writer, s string) int {
	n := writeUvarint(w, uint64(len(s)))
	w.WriteString(s)
	return n + len(s)
}

// writeColumns encodes a column count and each column's name, type byte
// and NOT NULL byte — the schema part of a CREATE TABLE record and of a
// generation's table header.
func writeColumns(w *bufio.Writer, cols []Column) int {
	n := writeUvarint(w, uint64(len(cols)))
	for _, c := range cols {
		n += writeString(w, c.Name)
		w.WriteByte(byte(c.Type))
		nn := byte(0)
		if c.NotNull {
			nn = 1
		}
		w.WriteByte(nn)
		n += 2
	}
	return n
}

func writeRow(w *bufio.Writer, r Row) int {
	n := writeUvarint(w, uint64(len(r)))
	for _, v := range r {
		n += writeValue(w, v)
	}
	return n
}

func writeValue(w *bufio.Writer, v Value) int {
	if v.IsNull() {
		w.WriteByte(0xFF)
		return 1
	}
	k := v.kind()
	w.WriteByte(byte(k))
	n := 1
	switch k {
	case TInt, TFloat, TTime:
		w.Write(binary.LittleEndian.AppendUint64(w.AvailableBuffer(), v.n))
		n += 8
	case TString:
		n += writeString(w, v.Str())
	case TBool:
		w.WriteByte(byte(v.n))
		n++
	}
	return n
}

// readRecord decodes one record; io.EOF at a record boundary means a clean
// end of log. Any mid-record failure surfaces as ErrCorrupt.
func readRecord(r *bufio.Reader) (walRecord, error) {
	op, err := r.ReadByte()
	if err != nil {
		return walRecord{}, err // io.EOF at boundary is clean
	}
	rec := walRecord{Op: op}
	if op < walInsert || op > walDropTable {
		return rec, fmt.Errorf("bad op %d: %w", op, ErrCorrupt)
	}
	rec.Table, err = readString(r)
	if err != nil {
		return rec, fmt.Errorf("table: %w", ErrCorrupt)
	}
	switch op {
	case walInsert:
		rec.Row, err = readRow(r)
	case walUpdate:
		rec.Key, err = readValue(r)
		if err == nil {
			rec.Row, err = readRow(r)
		}
	case walDelete:
		rec.Key, err = readValue(r)
	case walCreateTable:
		err = readCreateTable(r, &rec)
	case walCreateIndex:
		rec.Col, err = readString(r)
		if err == nil {
			var k byte
			k, err = r.ReadByte()
			rec.Kind = IndexKind(k)
		}
	}
	if err != nil {
		return rec, fmt.Errorf("payload: %w", ErrCorrupt)
	}
	return rec, nil
}

func readCreateTable(r *bufio.Reader, rec *walRecord) error {
	parts, err := binary.ReadUvarint(r)
	if err != nil || parts > 1<<16 {
		return ErrCorrupt
	}
	rec.Parts = int(parts)
	ncols, err := binary.ReadUvarint(r)
	if err != nil || ncols > 1<<12 {
		return ErrCorrupt
	}
	if rec.Cols, err = readN(r, ncols, readColumn); err != nil {
		return err
	}
	rec.PKName, err = readString(r)
	return err
}

func readColumn(r *bufio.Reader) (Column, error) {
	name, err := readString(r)
	if err != nil {
		return Column{}, err
	}
	ty, err := r.ReadByte()
	if err != nil {
		return Column{}, err
	}
	nn, err := r.ReadByte()
	if err != nil {
		return Column{}, err
	}
	return Column{Name: name, Type: Type(ty), NotNull: nn == 1}, nil
}

func readString(r *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > 1<<24 {
		return "", ErrCorrupt
	}
	// The length prefix is a claim until the bytes arrive: reserve at most
	// one chunk up front and let the builder grow with what is actually
	// read, so a torn record claiming 16 MiB costs one chunk, not 16 MiB.
	// The builder's buffer becomes the string — one copy out of the reader.
	var sb strings.Builder
	sb.Grow(int(min(n, readStringChunk)))
	for left := int(n); left > 0; {
		b, err := r.Peek(min(left, r.Size()))
		sb.Write(b)
		left -= len(b)
		_, _ = r.Discard(len(b)) // cannot fail: the bytes are buffered
		if err != nil && left > 0 {
			return "", err
		}
	}
	return sb.String(), nil
}

// readStringChunk is the most readString reserves before payload arrives.
const readStringChunk = 64 << 10

func readRow(r *bufio.Reader) (Row, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > 1<<16 {
		return nil, ErrCorrupt
	}
	return readN(r, n, readValue)
}

// readPresize is the most elements readN reserves on a count's word alone.
// Every real schema has fewer columns, so a real row or column list is
// still decoded into one exact allocation.
const readPresize = 32

// readN decodes n elements with read. Like a string's length prefix, n is
// a claim until the elements arrive: past readPresize the elements land in
// chunks no larger than what has already arrived, and are copied once into
// an exact slice when the last one has. A torn record claiming 65 536 cells
// therefore costs what its bytes hold, and a decoded slice always has
// len == cap (the row store keeps decoded rows as they are).
func readN[E any](r *bufio.Reader, n uint64, read func(*bufio.Reader) (E, error)) ([]E, error) {
	if n <= readPresize {
		out := make([]E, n)
		for i := range out {
			v, err := read(r)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	var chunks [][]E
	for got := 0; uint64(got) < n; {
		chunk := make([]E, min(max(got, readPresize), int(n)-got))
		for i := range chunk {
			v, err := read(r)
			if err != nil {
				return nil, err
			}
			chunk[i] = v
		}
		chunks = append(chunks, chunk)
		got += len(chunk)
	}
	out := make([]E, 0, n)
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out, nil
}

func readValue(r *bufio.Reader) (Value, error) {
	kind, err := r.ReadByte()
	if err != nil {
		return Value{}, err
	}
	if kind == 0xFF {
		return Null(), nil
	}
	var buf [8]byte
	switch Type(kind) {
	case TInt:
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return Value{}, err
		}
		return Int(int64(binary.LittleEndian.Uint64(buf[:]))), nil
	case TFloat:
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return Value{}, err
		}
		return Float(math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))), nil
	case TString:
		s, err := readString(r)
		if err != nil {
			return Value{}, err
		}
		return String(s), nil
	case TBool:
		b, err := r.ReadByte()
		if err != nil {
			return Value{}, err
		}
		return Bool(b == 1), nil
	case TTime:
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return Value{}, err
		}
		return timeNanos(int64(binary.LittleEndian.Uint64(buf[:]))), nil
	default:
		return Value{}, ErrCorrupt
	}
}

// applyRecord applies one decoded record to db with recovery semantics:
// replay runs on top of a snapshot that may already contain some of the
// log's effects, so records apply last-writer-wins — inserts upsert,
// updates delete the old key (if present) and upsert the new row, deletes
// of absent rows and drops of absent tables are no-ops, and re-created
// tables/indexes are skipped. The record's row is handed to the table, not
// copied: callers pass records they have just decoded and do not use
// rec.Row afterwards.
func applyRecord(db *DB, rec walRecord) error {
	switch rec.Op {
	case walCommit:
		return nil
	case walCreateTable:
		schema, err := NewSchema(rec.Cols, rec.PKName)
		if err != nil {
			return fmt.Errorf("replay schema for %q: %w", rec.Table, err)
		}
		if _, err := db.CreateTablePartitioned(rec.Table, schema, rec.Parts); err != nil {
			if errors.Is(err, ErrExists) {
				return nil // snapshot already has it
			}
			return err
		}
		return nil
	case walCreateIndex:
		t, err := db.Table(rec.Table)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		if err := t.CreateIndex(rec.Col, rec.Kind); err != nil {
			if errors.Is(err, ErrExists) {
				return nil
			}
			return err
		}
		return nil
	case walDropTable:
		if err := db.DropTable(rec.Table); err != nil {
			if errors.Is(err, ErrNotFound) {
				return nil // snapshot chain never carried it
			}
			return err
		}
		return nil
	}
	t, err := db.Table(rec.Table)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	switch rec.Op {
	case walInsert:
		return t.upsertOwned(rec.Row)
	case walUpdate:
		if !rec.Key.Equal(rec.Row[t.schema.PK]) {
			if err := t.Delete(rec.Key); err != nil && !errors.Is(err, ErrNotFound) {
				return err
			}
		}
		return t.upsertOwned(rec.Row)
	case walDelete:
		if err := t.Delete(rec.Key); err != nil && !errors.Is(err, ErrNotFound) {
			return err
		}
	}
	return nil
}
