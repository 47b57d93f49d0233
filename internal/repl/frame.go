// Package repl implements read-replica replication for the SciLens
// platform: a primary-side Source that serves the snapshot-generation
// chain for initial sync and then streams live WAL records (plus
// stream.Bus feed events) over HTTP, and a follower-side Client that
// replays the stream continuously into its own rdbms.DB, persisting a
// replication cursor so a crashed follower reconnects where it left off.
//
// The wire unit is a frame: one type byte, a uvarint payload length, and
// the payload. WAL records travel in their exact on-disk encoding, so the
// follower applies them with the same decoder crash recovery uses. A
// frame is applied only once fully read — a torn tail on a dropped
// connection can never half-apply.
package repl

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// Frame types.
const (
	frameRecord     byte = 'r' // one WAL record, raw on-disk encoding
	frameEndSegment byte = 'e' // segment drained; payload = next segment seq
	frameBusEvent   byte = 'b' // stream.Bus feed event payload
	frameHeartbeat  byte = 'h' // payload = primary's current segment + size
)

// maxFramePayload bounds a single frame. WAL records and feed events are
// small; anything near this is corruption, not data.
const maxFramePayload = 64 << 20

// frameWriter encodes frames onto a buffered writer.
type frameWriter struct {
	w   *bufio.Writer
	tmp [binary.MaxVarintLen64]byte
}

func newFrameWriter(w io.Writer) *frameWriter {
	return &frameWriter{w: bufio.NewWriterSize(w, 1<<16)}
}

func (fw *frameWriter) write(typ byte, payload []byte) error {
	if err := fw.w.WriteByte(typ); err != nil {
		return err
	}
	n := binary.PutUvarint(fw.tmp[:], uint64(len(payload)))
	if _, err := fw.w.Write(fw.tmp[:n]); err != nil {
		return err
	}
	_, err := fw.w.Write(payload)
	return err
}

// writeUvarints frames a payload of packed uvarints (heartbeats,
// end-of-segment markers).
func (fw *frameWriter) writeUvarints(typ byte, vals ...uint64) error {
	var buf [2 * binary.MaxVarintLen64]byte
	n := 0
	for _, v := range vals {
		n += binary.PutUvarint(buf[n:], v)
	}
	return fw.write(typ, buf[:n])
}

func (fw *frameWriter) flush() error { return fw.w.Flush() }

// frameReadStep bounds how far the payload buffer may run ahead of the
// bytes that have actually arrived: a length prefix is a claim, and a
// stream cut after a lying one costs in proportion to what was sent, not
// the 64 MiB the prefix may name.
const frameReadStep = 64 << 10

// frameReader decodes frames from a buffered stream into one payload
// buffer it reuses from frame to frame.
type frameReader struct {
	br  *bufio.Reader
	buf []byte
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{br: bufio.NewReaderSize(r, 1<<16)}
}

// next decodes the next frame. The payload aliases the reader's buffer and
// is valid only until the following call. A clean end of stream is io.EOF;
// a stream cut mid-frame is io.ErrUnexpectedEOF, and the partial frame is
// discarded, never returned.
func (fr *frameReader) next() (byte, []byte, error) {
	typ, err := fr.br.ReadByte()
	if err != nil {
		return 0, nil, err
	}
	size, err := binary.ReadUvarint(fr.br)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	if size > maxFramePayload {
		return 0, nil, fmt.Errorf("frame payload %d exceeds limit", size)
	}
	buf := fr.buf[:0]
	for rem := int(size); rem > 0; {
		step := min(rem, frameReadStep)
		buf = slices.Grow(buf, step)
		if _, err := io.ReadFull(fr.br, buf[len(buf):len(buf)+step]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, err
		}
		buf = buf[:len(buf)+step]
		rem -= step
	}
	fr.buf = buf
	return typ, buf, nil
}

// unpackUvarints decodes exactly want packed uvarints.
func unpackUvarints(payload []byte, want int) ([]uint64, error) {
	vals := make([]uint64, 0, want)
	for len(vals) < want {
		v, n := binary.Uvarint(payload)
		if n <= 0 {
			return nil, fmt.Errorf("short uvarint payload")
		}
		vals = append(vals, v)
		payload = payload[n:]
	}
	return vals, nil
}
