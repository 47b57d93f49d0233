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
		"short row": row[:3],
		"not hex":   {row[0], row[1], row[2], rdbms.String("zz")},
		"too long":  {row[0], row[1], row[2], rdbms.String(hex.EncodeToString(make([]byte, replTailWindow+1)))},
	} {
		if _, err := decodeCursor(bad); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}
