// Package rdbms implements the embedded relational engine behind the
// SciLens real-time path (paper §3.3, "Data Collection and Storage"). It
// provides typed schemas, partitioned lock-striped heap tables, hash and
// ordered secondary indexes, a write-ahead log with replay, and a durable
// incremental-checkpoint lifecycle (Open / Checkpoint / Close). Reads are
// point lookups (Get, View), index probes (ViewEq, LookupEq), ordered
// range scans (Range) and full scans (Scan).
//
// Tables are sharded into P partitions by primary-key hash: each stripe
// has its own lock, heap and index shards, so point reads and writes on
// different keys proceed in parallel; ordered range scans merge the
// per-partition skip lists back into one ascending stream under a
// whole-table read barrier. Durability is opt-in via Open(dir): every
// mutation (and DDL statement) appends to the current WAL segment before
// the call returns.
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
// manifest references must exist and apply completely or Open fails with
// ErrManifest — committed data is never silently dropped.
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

// Value is a dynamically typed cell. The zero Value is NULL. Strings live
// in s; every other kind shares the word n — an int's two's complement, a
// float's IEEE bits, a bool's 0/1, a timestamp's UTC Unix nanoseconds —
// which is exactly what the WAL and the snapshot generations persist, so a
// row in memory equals the row recovery or replication would rebuild.
type Value struct {
	s       string
	n       uint64
	kind    Type
	present bool // false => NULL
}

// zeroTimeNanos stands in for the zero time.Time, which lies outside the
// range Unix nanoseconds can express. It is the (wrapped) value
// time.Time{}.UnixNano() has always written to the log, so the sentinel
// costs no format change; the one real instant it shadows
// (1754-08-30T22:43:41.128654848Z) reads back as the zero time.
const zeroTimeNanos int64 = -6795364578871345152

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int wraps an int64.
func Int(v int64) Value { return Value{kind: TInt, n: uint64(v), present: true} }

// Float wraps a float64.
func Float(v float64) Value { return Value{kind: TFloat, n: math.Float64bits(v), present: true} }

// String wraps a string.
func String(v string) Value { return Value{kind: TString, s: v, present: true} }

// Bool wraps a bool.
func Bool(v bool) Value {
	var n uint64
	if v {
		n = 1
	}
	return Value{kind: TBool, n: n, present: true}
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
func timeNanos(ns int64) Value { return Value{kind: TTime, n: uint64(ns), present: true} }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return !v.present }

// Kind returns the value's type; meaningless for NULL.
func (v Value) Kind() Type { return v.kind }

// Int returns the integer payload (0 if not an int).
func (v Value) Int() int64 {
	if v.kind != TInt {
		return 0
	}
	return int64(v.n)
}

// Float returns the float payload, converting ints (0 for other kinds).
func (v Value) Float() float64 {
	switch v.kind {
	case TInt:
		return float64(int64(v.n))
	case TFloat:
		return math.Float64frombits(v.n)
	}
	return 0
}

// Str returns the string payload ("" if not a string).
func (v Value) Str() string { return v.s }

// Bool returns the bool payload (false if not a bool).
func (v Value) Bool() bool { return v.kind == TBool && v.n == 1 }

// Time returns the time payload in UTC (zero time if not a timestamp).
func (v Value) Time() time.Time {
	if v.kind != TTime || int64(v.n) == zeroTimeNanos {
		return time.Time{}
	}
	return time.Unix(0, int64(v.n)).UTC()
}

// String renders the value for debugging.
func (v Value) String() string {
	if v.IsNull() {
		return "NULL"
	}
	switch v.kind {
	case TInt:
		return strconv.FormatInt(v.Int(), 10)
	case TFloat:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case TString:
		return strconv.Quote(v.s)
	case TBool:
		return strconv.FormatBool(v.Bool())
	case TTime:
		return v.Time().Format(time.RFC3339Nano)
	default:
		return "?"
	}
}

// Equal reports deep equality; NULL equals only NULL.
func (v Value) Equal(w Value) bool {
	if v.IsNull() || w.IsNull() {
		return v.IsNull() && w.IsNull()
	}
	if v.kind != w.kind {
		return false
	}
	switch v.kind {
	case TFloat:
		return v.Float() == w.Float() // NaN != NaN, -0 == 0
	case TString:
		return v.s == w.s
	case TInt, TBool, TTime:
		return v.n == w.n
	}
	return false
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
	if v.kind != w.kind {
		return 0, fmt.Errorf("rdbms: comparing %v with %v: %w", v.kind, w.kind, ErrTypeMismatch)
	}
	switch v.kind {
	case TInt:
		return cmpOrdered(int64(v.n), int64(w.n)), nil
	case TFloat:
		return cmpOrdered(v.Float(), w.Float()), nil
	case TString:
		return cmpOrdered(v.s, w.s), nil
	case TBool:
		return cmpOrdered(v.n, w.n), nil
	case TTime:
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
	return 0, ErrTypeMismatch
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
	switch v.kind {
	case TInt:
		return "i" + strconv.FormatInt(int64(v.n), 36)
	case TFloat:
		return "f" + strconv.FormatFloat(v.Float(), 'b', -1, 64)
	case TString:
		return "s" + v.s
	case TBool:
		if v.n == 1 {
			return "b1"
		}
		return "b0"
	case TTime:
		return "t" + strconv.FormatInt(int64(v.n), 36)
	default:
		return "?"
	}
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
	hashNull    = fnvOf(Null().hashKey())
	hashTrue    = fnvOf(Bool(true).hashKey())
	hashFalse   = fnvOf(Bool(false).hashKey())
	hashUnknown = fnvOf("?")
)

// hash32 equals fnvOf(v.hashKey()) bit for bit and allocates nothing. One
// word serves as the partition router (hash32 % P) and as the hash-index
// tag, so an operation hashes its key once.
func (v Value) hash32() uint32 {
	if v.IsNull() {
		return hashNull
	}
	var buf [32]byte // the longest key, a float's, is 24 bytes
	switch v.kind {
	case TInt:
		return fnvAdd(fnvOffset, strconv.AppendInt(append(buf[:0], 'i'), int64(v.n), 36))
	case TFloat:
		return fnvAdd(fnvOffset, strconv.AppendFloat(append(buf[:0], 'f'), v.Float(), 'b', -1, 64))
	case TString:
		return fnvAdd(fnvAdd(fnvOffset, "s"), v.s)
	case TBool:
		if v.n == 1 {
			return hashTrue
		}
		return hashFalse
	case TTime:
		return fnvAdd(fnvOffset, strconv.AppendInt(append(buf[:0], 't'), int64(v.n), 36))
	default:
		return hashUnknown
	}
}

// sameKey reports whether v and w are one index key, that is whether their
// hashKeys are equal. It differs from Equal on floats: every NaN is the
// same key (an index built on Equal could never find or remove a NaN row)
// and +0 and -0 are two. NULL is a key; kinds never mix.
func (v Value) sameKey(w Value) bool {
	if v.IsNull() || w.IsNull() {
		return v.IsNull() && w.IsNull()
	}
	if v.kind != w.kind {
		return false
	}
	switch v.kind {
	case TString:
		return v.s == w.s
	case TFloat:
		return v.n == w.n || (math.IsNaN(v.Float()) && math.IsNaN(w.Float()))
	case TBool:
		return (v.n == 1) == (w.n == 1)
	default:
		return v.n == w.n
	}
}

// Row is one table row: values in schema column order.
type Row []Value

// Clone returns a deep copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}
