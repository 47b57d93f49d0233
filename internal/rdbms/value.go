// Package rdbms implements the embedded relational engine behind the
// SciLens real-time path (paper §3.3, "Data Collection and Storage"). It
// provides typed schemas, partitioned lock-striped heap tables, hash and
// ordered secondary indexes, a write-ahead log with replay, and a durable
// incremental-checkpoint lifecycle (OpenWithOptions / Checkpoint / Close).
// Reads are point lookups (Get, View), hash-index probes (ViewEq), ordered
// range scans (Range) and full scans (Scan).
//
// Tables are sharded into P partitions by primary-key hash: each stripe
// has its own lock, heap and index shards, so point reads and writes on
// different keys proceed in parallel; ordered range scans merge the
// per-partition skip lists back into one ascending stream under a
// whole-table read barrier. Durability is opt-in via OpenWithOptions:
// every mutation (and DDL statement) appends to the current WAL segment
// before the call returns.
//
// Checkpoints are incremental. Every partition carries a dirty epoch,
// bumped on each mutation landing in that stripe; Checkpoint serialises
// only the partitions dirtied since the previous checkpoint into a new
// numbered snapshot generation (snap-000007/), chained onto the base by a
// MANIFEST that is atomically rewritten — so checkpoint cost follows the
// write rate, not the corpus size. When the delta chain exceeds
// Options.DeltaLimit the checkpoint compacts it into a fresh full base
// and retires the superseded generations. Recovery applies
// manifest → base → deltas → WAL segments; WAL replay tolerates a torn
// tail (truncated at the last good record boundary), but a generation the
// manifest references must exist and apply completely or OpenWithOptions
// fails with ErrManifest — committed data is never silently dropped.
//
// When the WAL fsyncs is a policy (Options.Fsync): FsyncCheckpoint (the
// default) fsyncs only at checkpoint/rotation/close, FsyncIntervalPolicy
// fsyncs on a background cadence bounding the power-loss window, and
// FsyncAlways group-commits — every append parks on a committed-record
// watermark while a single flusher goroutine batches all concurrently
// parked appenders onto one fsync.
//
// The engine is a faithful miniature of what the platform needs from its
// RDBMS: indexed point and range access for the interactive path, atomic
// per-row upserts and read-modify-writes (Upsert, Mutate) from the
// streaming pipeline, and a store that survives restarts without losing
// the corpus the training loop depends on.
package rdbms

import (
	"fmt"
	"math"
	"strconv"
	"time"
	"unsafe"
)

// Type enumerates column types.
type Type uint8

// Column types.
const (
	// TInt is a 64-bit signed integer.
	TInt Type = iota
	// TFloat is a 64-bit float.
	TFloat
	// TString is a UTF-8 string.
	TString
	// TBool is a boolean.
	TBool
	// TTime is a timestamp with nanosecond precision.
	TTime
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TInt:
		return "INT"
	case TFloat:
		return "FLOAT"
	case TString:
		return "TEXT"
	case TBool:
		return "BOOL"
	case TTime:
		return "TIMESTAMP"
	default:
		return "UNKNOWN"
	}
}

// Value is a dynamically typed cell, 16 bytes. The zero Value is NULL.
//
// The kind lives in the pointer p. NULL is p == nil. A non-empty string
// points p at its bytes and keeps its length in n. Every other kind,
// the empty string included, points p at its entry in kindTags and keeps
// its payload in n — an int's two's complement, a float's IEEE bits, a
// bool's 0/1, a timestamp's UTC Unix nanoseconds — which is exactly what
// the WAL and the snapshot generations persist, so a row in memory holds
// the bits recovery or replication would rebuild.
//
// The zero-size func field makes == on Values a compile error: two equal
// strings may sit at different addresses. Compare Values with Equal or
// sameKey, and rows with Row.Identical.
type Value struct {
	_ [0]func()
	p unsafe.Pointer
	n uint64
}

// kindTags gives every kind one address for p to point at, no string's
// bytes lie inside it, and the field for kind k sits at offset k. It is a
// struct rather than an array because &kindTags.i costs the inliner less
// than &kindTags[TInt], which keeps a four-cell Row literal inlinable.
var kindTags struct{ i, f, s, b, t byte }

// zeroTimeNanos stands in for the zero time.Time, which lies outside the
// range Unix nanoseconds can express. It is the (wrapped) value
// time.Time{}.UnixNano() has always written to the log, so the sentinel
// costs no format change; the one real instant it shadows
// (1754-08-30T22:43:41.128654848Z) reads back as the zero time.
const zeroTimeNanos int64 = -6795364578871345152

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int wraps an int64.
func Int(v int64) Value { return Value{p: unsafe.Pointer(&kindTags.i), n: uint64(v)} }

// Float wraps a float64.
func Float(v float64) Value { return Value{p: unsafe.Pointer(&kindTags.f), n: math.Float64bits(v)} }

// String wraps a string. The Value shares the string's bytes.
func String(v string) Value {
	if len(v) == 0 {
		return Value{p: unsafe.Pointer(&kindTags.s)}
	}
	return Value{p: unsafe.Pointer(unsafe.StringData(v)), n: uint64(len(v))}
}

// Bool wraps a bool.
func Bool(v bool) Value {
	var n uint64
	if v {
		n = 1
	}
	return Value{p: unsafe.Pointer(&kindTags.b), n: n}
}

// Time wraps a time.Time as UTC Unix nanoseconds: the zone and any
// monotonic reading are dropped, and instants outside 1678–2262 other than
// the zero time are not representable.
func Time(v time.Time) Value {
	ns := zeroTimeNanos
	if !v.IsZero() {
		ns = v.UnixNano()
	}
	return timeNanos(ns)
}

// timeNanos wraps UTC Unix nanoseconds as a timestamp — the decoder's
// constructor.
func timeNanos(ns int64) Value { return Value{p: unsafe.Pointer(&kindTags.t), n: uint64(ns)} }

// tagged reports whether p is nil or one of kindTags, that is whether v
// holds no string bytes.
func (v Value) tagged() bool {
	return v.p == nil || uintptr(v.p)-uintptr(unsafe.Pointer(&kindTags)) < unsafe.Sizeof(kindTags)
}

// kind decodes p: a kindTags address gives its index, any other non-nil
// address is a string's bytes, and NULL reads as the zero Type.
func (v Value) kind() Type {
	if v.p == nil {
		return 0
	}
	if d := uintptr(v.p) - uintptr(unsafe.Pointer(&kindTags)); d < unsafe.Sizeof(kindTags) {
		return Type(d)
	}
	return TString
}

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.p == nil }

// Kind returns the value's type; meaningless for NULL.
func (v Value) Kind() Type { return v.kind() }

// Int returns the integer payload (0 if not an int).
func (v Value) Int() int64 {
	if v.p != unsafe.Pointer(&kindTags.i) {
		return 0
	}
	return int64(v.n)
}

// Float returns the float payload, converting ints (0 for other kinds).
func (v Value) Float() float64 {
	switch v.p {
	case unsafe.Pointer(&kindTags.i):
		return float64(int64(v.n))
	case unsafe.Pointer(&kindTags.f):
		return math.Float64frombits(v.n)
	}
	return 0
}

// Str returns the string payload ("" if not a string).
func (v Value) Str() string {
	if v.tagged() {
		return ""
	}
	return unsafe.String((*byte)(v.p), v.n)
}

// Bool returns the bool payload (false if not a bool).
func (v Value) Bool() bool { return v.p == unsafe.Pointer(&kindTags.b) && v.n == 1 }

// Time returns the time payload in UTC (zero time if not a timestamp).
func (v Value) Time() time.Time {
	if v.p != unsafe.Pointer(&kindTags.t) || int64(v.n) == zeroTimeNanos {
		return time.Time{}
	}
	return time.Unix(0, int64(v.n)).UTC()
}

// String renders the value for debugging.
func (v Value) String() string {
	if v.IsNull() {
		return "NULL"
	}
	switch v.kind() {
	case TInt:
		return strconv.FormatInt(v.Int(), 10)
	case TFloat:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case TString:
		return strconv.Quote(v.Str())
	case TBool:
		return strconv.FormatBool(v.Bool())
	}
	return v.Time().Format(time.RFC3339Nano)
}

// Equal reports deep equality; NULL equals only NULL.
func (v Value) Equal(w Value) bool {
	if v.IsNull() || w.IsNull() {
		return v.IsNull() && w.IsNull()
	}
	k := v.kind()
	if k != w.kind() {
		return false
	}
	switch k {
	case TFloat:
		return v.Float() == w.Float() // NaN != NaN, -0 == 0
	case TString:
		return v.Str() == w.Str()
	}
	return v.n == w.n
}

// Compare orders two values of the same kind: -1, 0, +1. NULL sorts before
// everything. Comparing mismatched kinds returns an error.
func (v Value) Compare(w Value) (int, error) {
	if v.IsNull() || w.IsNull() {
		switch {
		case v.IsNull() && w.IsNull():
			return 0, nil
		case v.IsNull():
			return -1, nil
		default:
			return 1, nil
		}
	}
	k := v.kind()
	if wk := w.kind(); k != wk {
		return 0, fmt.Errorf("rdbms: comparing %v with %v: %w", k, wk, ErrTypeMismatch)
	}
	switch k {
	case TInt:
		return cmpOrdered(int64(v.n), int64(w.n)), nil
	case TFloat:
		return cmpOrdered(v.Float(), w.Float()), nil
	case TString:
		return cmpOrdered(v.Str(), w.Str()), nil
	case TBool:
		return cmpOrdered(v.n, w.n), nil
	}
	// The zero time (year 1) sorts before every representable instant,
	// wherever its sentinel falls among them.
	vz, wz := int64(v.n) == zeroTimeNanos, int64(w.n) == zeroTimeNanos
	switch {
	case vz && wz:
		return 0, nil
	case vz:
		return -1, nil
	case wz:
		return 1, nil
	}
	return cmpOrdered(int64(v.n), int64(w.n)), nil
}

func cmpOrdered[T int64 | uint64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// hashKey returns the value's key string. It is the definition of key
// identity and of hash32; indexes and the partition router use hash32 and
// sameKey, which agree with it without building the string. Recovery
// verifies every stored row still routes to the stripe it was written in,
// so these strings are part of the on-disk contract.
func (v Value) hashKey() string {
	if v.IsNull() {
		return "\x00null"
	}
	switch v.kind() {
	case TInt:
		return "i" + strconv.FormatInt(int64(v.n), 36)
	case TFloat:
		return "f" + strconv.FormatFloat(v.Float(), 'b', -1, 64)
	case TString:
		return "s" + v.Str()
	case TBool:
		if v.n == 1 {
			return "b1"
		}
		return "b0"
	}
	return "t" + strconv.FormatInt(int64(v.n), 36)
}

const fnvOffset = 2166136261

// fnvOf is FNV-1a over a hash key.
func fnvOf(s string) uint32 { return fnvAdd(fnvOffset, s) }

// fnvAdd folds s into the running FNV-1a state h.
func fnvAdd[T string | []byte](h uint32, s T) uint32 {
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

var (
	hashNull  = fnvOf(Null().hashKey())
	hashTrue  = fnvOf(Bool(true).hashKey())
	hashFalse = fnvOf(Bool(false).hashKey())
)

// hash32 equals fnvOf(v.hashKey()) bit for bit and allocates nothing. One
// word serves as the partition router (hash32 % P) and as the hash-index
// tag, so an operation hashes its key once.
func (v Value) hash32() uint32 {
	if v.IsNull() {
		return hashNull
	}
	var buf [32]byte // the longest key, a float's, is 24 bytes
	switch v.kind() {
	case TInt:
		return fnvAdd(fnvOffset, strconv.AppendInt(append(buf[:0], 'i'), int64(v.n), 36))
	case TFloat:
		return fnvAdd(fnvOffset, strconv.AppendFloat(append(buf[:0], 'f'), v.Float(), 'b', -1, 64))
	case TString:
		return fnvAdd(fnvAdd(fnvOffset, "s"), v.Str())
	case TBool:
		if v.n == 1 {
			return hashTrue
		}
		return hashFalse
	}
	return fnvAdd(fnvOffset, strconv.AppendInt(append(buf[:0], 't'), int64(v.n), 36))
}

// sameKey reports whether v and w are one index key, that is whether their
// hashKeys are equal. It differs from Equal on floats: every NaN is the
// same key (an index built on Equal could never find or remove a NaN row)
// and +0 and -0 are two. NULL is a key; kinds never mix.
func (v Value) sameKey(w Value) bool {
	if v.IsNull() || w.IsNull() {
		return v.IsNull() && w.IsNull()
	}
	k := v.kind()
	if k != w.kind() {
		return false
	}
	switch k {
	case TString:
		return v.Str() == w.Str()
	case TFloat:
		return v.n == w.n || (math.IsNaN(v.Float()) && math.IsNaN(w.Float()))
	case TBool:
		return (v.n == 1) == (w.n == 1)
	}
	return v.n == w.n
}

// identical reports whether v and w are the same cell bit for bit: the
// same kind, the same payload bits, the same string bytes.
func (v Value) identical(w Value) bool {
	if v.tagged() || w.tagged() {
		return v.p == w.p && v.n == w.n
	}
	return v.Str() == w.Str()
}

// Row is one table row: values in schema column order.
type Row []Value

// Identical reports whether r and s hold the same cells bit for bit: the
// same kinds, the same payload bits (so -0 is not +0, and a NaN matches
// only a NaN with its bits) and the same string bytes, wherever they sit.
// It is the comparison for a row against its recovered, replicated or
// re-encoded copy; reflect.DeepEqual would compare string addresses.
func (r Row) Identical(s Row) bool {
	if len(r) != len(s) {
		return false
	}
	for i, v := range r {
		if !v.identical(s[i]) {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}
