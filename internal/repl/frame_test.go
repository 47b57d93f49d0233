package repl

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"strings"
	"testing"
)

// encodeFrames writes the given frames through a frameWriter.
func encodeFrames(t *testing.T, write func(fw *frameWriter) error) []byte {
	t.Helper()
	var wire bytes.Buffer
	fw := newFrameWriter(&wire)
	if err := write(fw); err != nil {
		t.Fatal(err)
	}
	if err := fw.flush(); err != nil {
		t.Fatal(err)
	}
	return wire.Bytes()
}

// TestFrameRoundTrip: write∘read is the identity for every frame type, and
// a stream that ends between frames ends with a clean io.EOF.
func TestFrameRoundTrip(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789abcdef"), (2*frameReadStep+512)/16) // spans read steps
	cases := []struct {
		name    string
		typ     byte
		payload []byte   // raw-payload frames
		vals    []uint64 // packed-uvarint frames
	}{
		{"record", frameRecord, []byte("\x01\x08articles\x02..."), nil},
		{"record-empty", frameRecord, []byte{}, nil},
		{"record-multi-step", frameRecord, big, nil},
		{"bus-event", frameBusEvent, []byte(`{"type":"posting","post_id":"p-1"}`), nil},
		{"end-segment", frameEndSegment, nil, []uint64{7}},
		{"heartbeat", frameHeartbeat, nil, []uint64{12, 8 << 20}},
		{"heartbeat-zero", frameHeartbeat, nil, []uint64{0, 0}},
	}
	// All frames on one wire, read back by one reader: the payload buffer
	// is reused from frame to frame and must never bleed between them.
	wire := encodeFrames(t, func(fw *frameWriter) error {
		for _, c := range cases {
			var err error
			if c.vals != nil {
				err = fw.writeUvarints(c.typ, c.vals...)
			} else {
				err = fw.write(c.typ, c.payload)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	fr := newFrameReader(bytes.NewReader(wire))
	for _, c := range cases {
		typ, payload, err := fr.next()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if typ != c.typ {
			t.Fatalf("%s: type %q, want %q", c.name, typ, c.typ)
		}
		if c.vals == nil {
			if !bytes.Equal(payload, c.payload) {
				t.Fatalf("%s: payload of %d bytes came back as %d", c.name, len(c.payload), len(payload))
			}
			continue
		}
		vals, err := unpackUvarints(payload, len(c.vals))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for i := range vals {
			if vals[i] != c.vals[i] {
				t.Fatalf("%s: value %d = %d, want %d", c.name, i, vals[i], c.vals[i])
			}
		}
	}
	if _, _, err := fr.next(); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}
}

// TestFrameCutMidFrame: a stream cut anywhere inside a frame — after the
// type byte, inside the length prefix, inside the payload — reports
// io.ErrUnexpectedEOF and returns no part of the frame; frames before the
// cut are unaffected.
func TestFrameCutMidFrame(t *testing.T) {
	payload := []byte(strings.Repeat("p", 300)) // two-byte length prefix
	wire := encodeFrames(t, func(fw *frameWriter) error {
		if err := fw.writeUvarints(frameHeartbeat, 1, 2); err != nil {
			return err
		}
		return fw.write(frameRecord, payload)
	})
	first := len(wire) - (1 + 2 + len(payload)) // where the record frame starts
	for cut := first + 1; cut < len(wire); cut++ {
		fr := newFrameReader(bytes.NewReader(wire[:cut]))
		if typ, _, err := fr.next(); err != nil || typ != frameHeartbeat {
			t.Fatalf("cut %d: frame before the cut: %q, %v", cut, typ, err)
		}
		typ, got, err := fr.next()
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("cut %d: %v, want io.ErrUnexpectedEOF", cut, err)
		}
		if typ != 0 || got != nil {
			t.Fatalf("cut %d: partial frame returned (type %q, %d bytes)", cut, typ, len(got))
		}
	}
	if _, _, err := newFrameReader(bytes.NewReader(wire[:first])).next(); err != nil {
		t.Fatalf("cut at a frame boundary broke the frame before it: %v", err)
	}
}

// TestFrameLengthPrefixIsAClaim: a prefix over the limit is refused before
// anything is read for it, and one under the limit that the link never
// honours costs in proportion to the bytes that arrived.
func TestFrameLengthPrefixIsAClaim(t *testing.T) {
	prefix := func(size uint64) []byte {
		b := []byte{frameRecord}
		return binary.AppendUvarint(b, size)
	}

	fr := newFrameReader(bytes.NewReader(prefix(maxFramePayload + 1)))
	if _, _, err := fr.next(); err == nil || err == io.ErrUnexpectedEOF {
		t.Fatalf("oversize prefix: %v, want a refusal", err)
	}
	if cap(fr.buf) != 0 {
		t.Fatalf("oversize prefix allocated %d bytes", cap(fr.buf))
	}

	// 64 MiB claimed, one read step and a bit delivered, then the link dies.
	wire := append(prefix(maxFramePayload), bytes.Repeat([]byte("x"), frameReadStep+100)...)
	fr = newFrameReader(bytes.NewReader(wire))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, got, err := fr.next()
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF || got != nil {
		t.Fatalf("lying prefix on a cut link: %d bytes, %v", len(got), err)
	}
	if spent := after.TotalAlloc - before.TotalAlloc; spent > 8*frameReadStep {
		t.Fatalf("a cut link that delivered %d bytes cost %d bytes of buffer", len(wire), spent)
	}
}

// FuzzFrameReader reads the input as a replication stream until the first
// error. A failed next returns no part of a frame; decoding allocates at
// most a read step (two under -race) plus a constant multiple of the input
// length, however large the length prefixes claim to be (up to
// maxFramePayload); and the
// frames read re-encode through frameWriter to frames that read back with
// the same type bytes and payloads. The seeds under
// testdata/fuzz/FuzzFrameReader are the frames of the tests above: every
// frame type on one wire, a payload spanning read steps, a frame cut
// inside its payload, an over-limit prefix, a 64 MiB claim the link never
// honours and a length prefix that overflows 64 bits.
func FuzzFrameReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		// Sized up front so that collecting the frames allocates nothing
		// while allocations are counted: every frame is at least two bytes.
		types := make([]byte, 0, len(data)/2+1)
		ends := make([]int, 0, len(data)/2+1)
		payloads := make([]byte, 0, len(data))
		fr := newFrameReader(bytes.NewReader(data))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for {
			typ, payload, err := fr.next()
			if err != nil {
				if typ != 0 || payload != nil {
					t.Fatalf("frame %d: failed with %v but returned type %q and %d bytes", len(types), err, typ, len(payload))
				}
				break
			}
			types = append(types, typ)
			payloads = append(payloads, payload...)
			ends = append(ends, len(payloads))
		}
		runtime.ReadMemStats(&after)
		// growSlack is a second read step: under -race the make inside
		// slices.Grow is a real allocation, so each grow costs twice.
		const growSlack = frameReadStep
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(frameReadStep+growSlack+1024+16*len(data)); got > limit {
			t.Fatalf("reading %d bytes allocated %d B, limit %d", len(data), got, limit)
		}

		wire := encodeFrames(t, func(fw *frameWriter) error {
			start := 0
			for i, typ := range types {
				if err := fw.write(typ, payloads[start:ends[i]]); err != nil {
					return err
				}
				start = ends[i]
			}
			return nil
		})
		fr = newFrameReader(bytes.NewReader(wire))
		start := 0
		for i, want := range types {
			typ, payload, err := fr.next()
			if err != nil {
				t.Fatalf("re-encoded frame %d: %v", i, err)
			}
			if typ != want || !bytes.Equal(payload, payloads[start:ends[i]]) {
				t.Fatalf("frame %d: re-encoded as type %q with %d bytes, read first as %q with %d",
					i, typ, len(payload), want, ends[i]-start)
			}
			start = ends[i]
		}
		if _, _, err := fr.next(); err != io.EOF {
			t.Fatalf("re-encoded stream ends with %v, want io.EOF", err)
		}
	})
}

// TestUnpackUvarints: exactly the wanted count decodes; a short or
// truncated payload is an error, never a zero value.
func TestUnpackUvarints(t *testing.T) {
	two := binary.AppendUvarint(binary.AppendUvarint(nil, 300), 5)
	cases := []struct {
		name    string
		payload []byte
		want    int
		vals    []uint64
		bad     bool
	}{
		{"exact", two, 2, []uint64{300, 5}, false},
		{"prefix-of-longer", two, 1, []uint64{300}, false},
		{"short", two, 3, nil, true},
		{"empty", nil, 1, nil, true},
		{"truncated-varint", two[:1], 1, nil, true}, // continuation bit set, no next byte
		{"none-wanted", nil, 0, []uint64{}, false},
	}
	for _, c := range cases {
		vals, err := unpackUvarints(c.payload, c.want)
		if c.bad {
			if err == nil {
				t.Fatalf("%s: decoded %v from a short payload", c.name, vals)
			}
			continue
		}
		if err != nil || len(vals) != len(c.vals) {
			t.Fatalf("%s: %v, %v", c.name, vals, err)
		}
		for i := range vals {
			if vals[i] != c.vals[i] {
				t.Fatalf("%s: value %d = %d, want %d", c.name, i, vals[i], c.vals[i])
			}
		}
	}
}
