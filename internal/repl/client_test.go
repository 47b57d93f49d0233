package repl

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"testing"

	"repro/internal/rdbms"
)

// TestCursorTailWindow: the fixed-array window always holds the last
// replTailWindow bytes of everything pushed — records shorter than the
// window, longer than it, exactly it, and empty — which is what the
// primary hashes on reconnect.
func TestCursorTailWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var cur cursor
	var all []byte
	for i := 0; i < 2000; i++ {
		var n int
		switch rng.Intn(5) {
		case 0:
			n = 0
		case 1:
			n = replTailWindow
		case 2:
			n = replTailWindow + 1 + rng.Intn(300)
		default:
			n = 1 + rng.Intn(replTailWindow-1)
		}
		rec := make([]byte, n)
		rng.Read(rec)
		cur.push(rec)
		all = append(all, rec...)
		want := all[max(0, len(all)-replTailWindow):]
		if !bytes.Equal(cur.window(), want) {
			t.Fatalf("after %d pushes (%d bytes): window %x, want %x", i+1, len(all), cur.window(), want)
		}
	}
}

// TestDecodeCursor: a stored cursor row round-trips, and a tail no
// follower could have written is refused rather than truncated.
func TestDecodeCursor(t *testing.T) {
	tail := []byte("the last bytes applied")
	row := rdbms.Row{rdbms.String("cursor"), rdbms.Int(4), rdbms.Int(1234), rdbms.String(hex.EncodeToString(tail))}
	cur, err := decodeCursor(row)
	if err != nil || cur.seg != 4 || cur.off != 1234 || !bytes.Equal(cur.window(), tail) {
		t.Fatalf("decoded %+v, %v", cur, err)
	}
	for name, bad := range map[string]rdbms.Row{
		"short row":        row[:3],
		"not hex":          {row[0], row[1], row[2], rdbms.String("zz")},
		"too long":         {row[0], row[1], row[2], rdbms.String(hex.EncodeToString(make([]byte, replTailWindow+1)))},
		"negative segment": {row[0], rdbms.Int(-1), row[2], row[3]},
		"negative offset":  {row[0], row[1], rdbms.Int(-1), row[3]},
	} {
		if _, err := decodeCursor(bad); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}

// FuzzDecodeCursor feeds decodeCursor every cursor row the table's schema
// admits. It must never panic; a negative segment or offset, a tail that
// is not hex and a tail longer than replTailWindow are errors; any other
// row decodes to exactly its position and tail, and saveCursor's encoding
// of the decoded cursor decodes back to it. The seeds under
// testdata/fuzz/FuzzDecodeCursor are a stored cursor, an empty and a
// full window, upper-case hex, odd-length and non-hex tails, a window one
// byte too long, and a negative segment and offset.
func FuzzDecodeCursor(f *testing.F) {
	f.Fuzz(func(t *testing.T, seg, off int64, tail string) {
		cur, err := decodeCursor(rdbms.Row{rdbms.String("cursor"), rdbms.Int(seg), rdbms.Int(off), rdbms.String(tail)})
		raw, hexErr := hex.DecodeString(tail)
		if seg < 0 || off < 0 || hexErr != nil || len(raw) > replTailWindow {
			if err == nil {
				t.Fatalf("accepted segment %d, offset %d, tail %q", seg, off, tail)
			}
			return
		}
		if err != nil {
			t.Fatalf("refused segment %d, offset %d, tail %q: %v", seg, off, tail, err)
		}
		if int64(cur.seg) != seg || cur.off != off || !bytes.Equal(cur.window(), raw) {
			t.Fatalf("decoded %d/%d/%x from %d/%d/%q", cur.seg, cur.off, cur.window(), seg, off, tail)
		}
		back, err := decodeCursor(cursorRow(cur))
		if err != nil || back.seg != cur.seg || back.off != cur.off || !bytes.Equal(back.window(), cur.window()) {
			t.Fatalf("saved cursor %d/%d/%x read back as %d/%d/%x, %v",
				cur.seg, cur.off, cur.window(), back.seg, back.off, back.window(), err)
		}
	})
}
