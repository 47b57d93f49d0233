package synth

import (
	"math"
	"runtime"
	"testing"
)

// decodeAllocBytesPerInputByte and decodeAllocSlack bound what one
// DecodeEvent call allocates: the validity scan and the decode each keep a
// state stack that grows with nesting depth (one opening bracket per
// input byte at worst), and every decoded string is at most its quoted
// length, so the bytes allocated are at most a constant multiple of the
// payload length plus a fixed overhead.
const (
	decodeAllocBytesPerInputByte = 64
	decodeAllocSlack             = 4 << 10
)

// sameEvent compares two events field for field, times by Equal.
func sameEvent(a, b Event) bool {
	return a.Type == b.Type && a.PostID == b.PostID && a.ParentID == b.ParentID &&
		a.Kind == b.Kind && a.OutletID == b.OutletID && a.UserID == b.UserID &&
		a.Text == b.Text && a.ArticleURL == b.ArticleURL && a.ArticleID == b.ArticleID &&
		a.ArticleHTML == b.ArticleHTML && a.Time.Equal(b.Time)
}

// FuzzDecodeEvent runs DecodeEvent, the decoder of every dead-lettered
// event replayed through the pipeline, on arbitrary payloads. It must
// never panic, the bytes it allocates stay within
// decodeAllocBytesPerInputByte times the payload length plus
// decodeAllocSlack, and any event it accepts survives Encode and a second
// DecodeEvent field for field. The seeds under testdata/fuzz/FuzzDecodeEvent
// are a posting and a reaction as the pipeline encodes them, a time with
// a zone offset, escaped strings, deep nesting in an unknown field, a
// wrong-typed time, null and truncated JSON.
func FuzzDecodeEvent(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		// The first decode may pay one-time process set-up (time.Parse
		// loads the local zone the first time an input carries an offset),
		// and the fuzzing engine allocates on goroutines of its own while a
		// decode runs; the bound is for the decode itself, so it takes the
		// cheapest of three more.
		e, err := DecodeEvent(payload)
		allocated := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _ = DecodeEvent(payload)
			runtime.ReadMemStats(&after)
			allocated = min(allocated, after.TotalAlloc-before.TotalAlloc)
		}
		if limit := uint64(decodeAllocBytesPerInputByte*len(payload) + decodeAllocSlack); allocated > limit {
			t.Fatalf("decoding %d bytes allocated %d B, limit %d", len(payload), allocated, limit)
		}
		if err != nil {
			return
		}
		enc, err := e.Encode()
		if err != nil {
			t.Fatalf("decoded %+v does not encode: %v", e, err)
		}
		back, err := DecodeEvent(enc)
		if err != nil {
			t.Fatalf("re-decoding %s: %v", enc, err)
		}
		if !sameEvent(e, back) {
			t.Fatalf("round trip changed the event:\n%+v\n%+v", e, back)
		}
	})
}
