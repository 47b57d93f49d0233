package api

// One-pass decoders for the two request bodies the platform receives at
// volume: POST /api/assess (an arbitrary document) and POST /api/ingest (a
// batch of firehose events). Each reads the body once, front to back,
// validating as it goes, and yields exactly the value json.Unmarshal
// yields for the same bytes, or an error where json.Unmarshal has one.
// FuzzRequestDecoders holds them to that.
//
// What they keep from encoding/json, by construction:
//   - keys select fields exactly, else under Unicode case folding
//     (bytes.EqualFold), and the last of duplicate keys wins;
//   - null leaves a string or time untouched and sets the events slice
//     to nil; a repeated "events" array decodes into the elements the
//     first left, growing the slice as reflect's Grow does;
//   - escapes, surrogate pairs and invalid UTF-8 unescape as
//     encoding/json unescapes them;
//   - unknown members are skipped but must be valid JSON, nested at most
//     maxNesting deep;
//   - time is decoded by time.Time's own UnmarshalJSON on the raw value.
//
// The decoders unescape every string over its own raw bytes in the body
// (an escape only ever shortens its text) and then copy it out once, so
// no decoded string is a span of the body: stored rows keep event
// strings, and a span would keep the whole batch alive with them.

import (
	"bytes"
	"errors"
	"fmt"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/synth"
)

// maxNesting is encoding/json's bound on nested arrays and objects.
const maxNesting = 10000

var errUnexpectedEnd = errors.New("unexpected end of JSON input")

// assessKeys, ingestKeys and eventKeys are the json names of the fields
// of assessRequest, ingestRequest and synth.Event, in the order the
// decoders switch on them.
var (
	assessKeys = []string{"url", "html"}
	ingestKeys = []string{"events", "mode"}
	eventKeys  = []string{"type", "post_id", "parent_id", "kind", "outlet_id", "user_id",
		"text", "article_url", "article_id", "article_html", "time"}
)

// timeKey is the index of "time" in eventKeys: every other key names a
// string field (eventString).
const timeKey = 10

// decodeAssessRequest decodes a POST /api/assess body. It overwrites data.
func decodeAssessRequest(data []byte) (assessRequest, error) {
	var req assessRequest
	d := bodyDecoder{data: data}
	err := d.document(func(key []byte) error {
		switch memberIndex(key, assessKeys) {
		case 0:
			return d.stringInto(&req.URL, "url")
		case 1:
			return d.stringInto(&req.HTML, "html")
		}
		return d.skip(1)
	})
	return req, err
}

// decodeIngestRequest decodes a POST /api/ingest body. It overwrites data.
func decodeIngestRequest(data []byte) (ingestRequest, error) {
	var req ingestRequest
	d := bodyDecoder{data: data}
	err := d.document(func(key []byte) error {
		switch memberIndex(key, ingestKeys) {
		case 0:
			return d.events(&req.Events)
		case 1:
			return d.stringInto(&req.Mode, "mode")
		}
		return d.skip(1)
	})
	return req, err
}

// memberIndex reports which of names key selects, as encoding/json
// matches a key to a field: exactly, else under Unicode case folding (so
// "URL" selects url and "\u212Aind", with the Kelvin sign, selects kind).
// It returns -1 for none.
func memberIndex(key []byte, names []string) int {
	for i, n := range names {
		if string(key) == n {
			return i
		}
	}
	for i, n := range names {
		if bytes.EqualFold(key, []byte(n)) {
			return i
		}
	}
	return -1
}

// bodyDecoder is one pass over a JSON body: off is the next unread byte.
type bodyDecoder struct {
	data []byte
	off  int
}

// document reads the body's one value: an object, whose members it
// hands to member, or null, which decodes to the zero request as it does
// for json.Unmarshal. Only whitespace may follow.
func (d *bodyDecoder) document(member func(key []byte) error) error {
	d.space()
	var err error
	switch d.peek() {
	case 'n':
		err = d.literal("null")
	case '{':
		err = d.object(member)
	default:
		err = d.unexpected("request body: want a JSON object")
	}
	if err != nil {
		return err
	}
	d.space()
	if d.off < len(d.data) {
		return d.unexpected("after top-level value")
	}
	return nil
}

// object reads the object at the decoder's offset, calling member with
// each key (unescaped; valid until the next read) and the decoder at the
// key's value, which member must read.
func (d *bodyDecoder) object(member func(key []byte) error) error {
	d.off++ // the '{' the caller saw
	more, err := d.first('}')
	for more && err == nil {
		var key []byte
		if key, err = d.key(); err == nil {
			if err = member(key); err == nil {
				more, err = d.next('}')
			}
		}
	}
	return err
}

// array reads the array at the decoder's offset, calling elem with each
// element's index and the decoder at the element, which elem must read.
func (d *bodyDecoder) array(elem func(i int) error) error {
	d.off++ // the '[' the caller saw
	more, err := d.first(']')
	for i := 0; more && err == nil; i++ {
		if err = elem(i); err == nil {
			more, err = d.next(']')
		}
	}
	return err
}

func (d *bodyDecoder) space() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// peek returns the next byte, or 0 at the end of the body.
func (d *bodyDecoder) peek() byte {
	if d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0
}

// unexpected is the syntax or type error at the decoder's offset.
func (d *bodyDecoder) unexpected(context string) error {
	if d.off >= len(d.data) {
		return errUnexpectedEnd
	}
	return fmt.Errorf("invalid character %q at offset %d: %s", d.data[d.off], d.off, context)
}

// first reports whether the array or object just opened has an element,
// consuming the closing bracket if it has none.
func (d *bodyDecoder) first(closing byte) (bool, error) {
	d.space()
	if d.peek() == closing {
		d.off++
		return false, nil
	}
	return d.off < len(d.data), d.atEnd()
}

// next moves past the element just read to the next one, reporting
// whether there is one, or past the closing bracket.
func (d *bodyDecoder) next(closing byte) (bool, error) {
	d.space()
	switch d.peek() {
	case ',':
		d.off++
		d.space()
		return true, d.atEnd()
	case closing:
		d.off++
		return false, nil
	}
	return false, d.unexpected("want ',' or '" + string(closing) + "'")
}

func (d *bodyDecoder) atEnd() error {
	if d.off >= len(d.data) {
		return errUnexpectedEnd
	}
	return nil
}

// key reads an object member's key and its colon, leaving the decoder at
// the value. The key is unescaped in place: it is valid until the next read.
func (d *bodyDecoder) key() ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.unexpected("want an object key")
	}
	key, err := d.str()
	if err != nil {
		return nil, err
	}
	d.space()
	if d.peek() != ':' {
		return nil, d.unexpected("want ':' after object key")
	}
	d.off++
	d.space()
	return key, nil
}

// literal consumes lit (true, false or null).
func (d *bodyDecoder) literal(lit string) error {
	rest := d.data[d.off:]
	if !bytes.HasPrefix(rest, []byte(lit)) {
		for i := 0; i < len(rest) && i < len(lit); i++ {
			if rest[i] != lit[i] {
				d.off += i
				return d.unexpected("in literal " + lit)
			}
		}
		return errUnexpectedEnd
	}
	d.off += len(lit)
	return nil
}

// stringInto decodes a string member into *dst: a fresh string, never a
// span of the body. null leaves *dst as it is.
func (d *bodyDecoder) stringInto(dst *string, name string) error {
	switch d.peek() {
	case '"':
		s, err := d.str()
		if err != nil {
			return err
		}
		*dst = string(s)
		return nil
	case 'n':
		return d.literal("null")
	}
	return d.unexpected(name + ": want a string")
}

// str reads the JSON string at the decoder's offset and returns its
// text. A string with no escape and no invalid UTF-8 comes back as the
// span of the body between its quotes; any other is unescaped over its
// own raw bytes, where its text always fits: every escape is longer than
// what it stands for. Only invalid UTF-8 grows (one byte to U+FFFD's
// three), and a string whose text would overtake its raw bytes moves to
// a buffer of its own. Either way the text is valid until the next read.
func (d *bodyDecoder) str() ([]byte, error) {
	data := d.data
	start := d.off + 1
	i := start
	for i < len(data) {
		c := data[i]
		if c == '"' {
			d.off = i + 1
			return data[start:i], nil
		}
		if c == '\\' {
			break
		}
		if c < ' ' {
			d.off = i
			return nil, d.unexpected("in string literal")
		}
		if c < utf8.RuneSelf {
			i++
			continue
		}
		r, size := utf8.DecodeRune(data[i:])
		if r == utf8.RuneError && size == 1 {
			break
		}
		i += size
	}
	// out aliases the body from start until a replacement would overtake
	// the bytes not yet read; then it is copied to a buffer of its own.
	out, inPlace := data[start:i], true
	for i < len(data) {
		switch c := data[i]; {
		case c == '"':
			d.off = i + 1
			return out, nil
		case c == '\\':
			if i+1 >= len(data) {
				return nil, errUnexpectedEnd
			}
			switch e := data[i+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(data[i+2:])
				if r < 0 {
					d.off = i + 2
					return nil, d.badHex()
				}
				i += 6
				if utf16.IsSurrogate(r) {
					// A pair decodes to one rune; a surrogate without its
					// partner to U+FFFD, as encoding/json decodes it.
					if dec := utf16.DecodeRune(r, escapedRune(data[i:])); dec != utf8.RuneError {
						out = utf8.AppendRune(out, dec)
						i += 6
						continue
					}
					r = utf8.RuneError
				}
				out = utf8.AppendRune(out, r)
				continue
			default:
				d.off = i + 1
				return nil, d.unexpected("in string escape code")
			}
			i += 2
		case c < ' ':
			d.off = i
			return nil, d.unexpected("in string literal")
		case c < utf8.RuneSelf:
			j := i + 1
			for j < len(data) && data[j] >= ' ' && data[j] < utf8.RuneSelf && data[j] != '"' && data[j] != '\\' {
				j++
			}
			out = append(out, data[i:j]...)
			i = j
		default:
			r, size := utf8.DecodeRune(data[i:])
			if r == utf8.RuneError && size == 1 {
				if inPlace && start+len(out)+utf8.RuneLen(r) > i+1 {
					out, inPlace = append([]byte(nil), out...), false
				}
				out = utf8.AppendRune(out, r)
			} else {
				out = append(out, data[i:i+size]...)
			}
			i += size
		}
	}
	return nil, errUnexpectedEnd
}

// badHex is the error for a \u escape without four hex digits at d.off.
func (d *bodyDecoder) badHex() error {
	for k := 0; k < 4 && d.off < len(d.data); k++ {
		if hexDigit(d.data[d.off]) < 0 {
			return d.unexpected("in \\u hexadecimal character escape")
		}
		d.off++
	}
	return errUnexpectedEnd
}

// escapedRune returns the rune of the \uXXXX escape that s starts with,
// or -1 if s does not start with one.
func escapedRune(s []byte) rune {
	if len(s) < 2 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	return hex4(s[2:])
}

// hex4 returns the value of the four hex digits s starts with, or -1.
func hex4(s []byte) rune {
	if len(s) < 4 {
		return -1
	}
	var r rune
	for _, c := range s[:4] {
		v := hexDigit(c)
		if v < 0 {
			return -1
		}
		r = r<<4 | v
	}
	return r
}

func hexDigit(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10)
	}
	return -1
}

// skip reads past one JSON value of any kind, checking it as
// encoding/json's scanner does, without writing to the body. depth is the
// nesting of the array or object the value sits in.
func (d *bodyDecoder) skip(depth int) error {
	switch c := d.peek(); {
	case c == '"':
		return d.skipString()
	case c == '{' || c == '[':
		if depth >= maxNesting {
			return d.unexpected("exceeded max depth")
		}
		if c == '{' {
			return d.object(func([]byte) error { return d.skip(depth + 1) })
		}
		return d.array(func(int) error { return d.skip(depth + 1) })
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		return d.number()
	}
	return d.unexpected("looking for beginning of value")
}

// skipString reads past a JSON string, checking its escapes.
func (d *bodyDecoder) skipString() error {
	data := d.data
	for i := d.off + 1; i < len(data); i++ {
		switch c := data[i]; {
		case c == '"':
			d.off = i + 1
			return nil
		case c == '\\':
			if i+1 >= len(data) {
				return errUnexpectedEnd
			}
			switch data[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				if hex4(data[i+2:]) < 0 {
					d.off = i + 2
					return d.badHex()
				}
				i += 5
			default:
				d.off = i + 1
				return d.unexpected("in string escape code")
			}
		case c < ' ':
			d.off = i
			return d.unexpected("in string literal")
		}
	}
	return errUnexpectedEnd
}

// number reads past a JSON number.
func (d *bodyDecoder) number() error {
	if d.peek() == '-' {
		d.off++
	}
	switch c := d.peek(); {
	case c == '0':
		d.off++
	case '1' <= c && c <= '9':
		d.digits()
	default:
		return d.unexpected("in numeric literal")
	}
	if d.peek() == '.' {
		d.off++
		if !d.digits() {
			return d.unexpected("after decimal point in numeric literal")
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.off++
		if c := d.peek(); c == '+' || c == '-' {
			d.off++
		}
		if !d.digits() {
			return d.unexpected("in exponent of numeric literal")
		}
	}
	return nil
}

// digits reads past a run of decimal digits and reports whether there
// was at least one.
func (d *bodyDecoder) digits() bool {
	start := d.off
	for c := d.peek(); '0' <= c && c <= '9'; c = d.peek() {
		d.off++
	}
	return d.off > start
}

// events decodes the "events" array into *evs the way encoding/json
// decodes into a slice: element i reuses what the slice already holds at
// i (also past its length, within its capacity), the slice grows one
// element at a time, a shorter array truncates it, an empty one leaves a
// fresh empty slice and null leaves nil.
func (d *bodyDecoder) events(evs *[]synth.Event) error {
	switch d.peek() {
	case 'n':
		*evs = nil
		return d.literal("null")
	case '[':
	default:
		return d.unexpected("events: want an array")
	}
	s, n := *evs, 0
	err := d.array(func(i int) error {
		switch {
		case i < len(s):
		case i < cap(s):
			s = s[:i+1]
		default:
			s = append(s, synth.Event{})
		}
		n = i + 1
		return d.event(&s[i], i)
	})
	if err != nil {
		return err
	}
	if s = s[:n]; n == 0 {
		s = []synth.Event{}
	}
	*evs = s
	return nil
}

// event decodes one element of the events array into *ev: null leaves it
// as it is.
func (d *bodyDecoder) event(ev *synth.Event, i int) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		return d.unexpected(fmt.Sprintf("events[%d]: want an object", i))
	}
	return d.object(func(key []byte) error {
		k := memberIndex(key, eventKeys)
		switch k {
		case -1:
			return d.skip(3)
		case timeKey:
			start := d.off
			if err := d.skip(3); err != nil {
				return err
			}
			if err := ev.Time.UnmarshalJSON(d.data[start:d.off]); err != nil {
				return fmt.Errorf("events[%d].time: %w", i, err)
			}
			return nil
		}
		return d.stringInto(eventString(ev, k), eventKeys[k])
	})
}

// eventString returns the string field of ev that eventKeys[k] names.
func eventString(ev *synth.Event, k int) *string {
	return [...]*string{&ev.Type, &ev.PostID, &ev.ParentID, &ev.Kind, &ev.OutletID, &ev.UserID,
		&ev.Text, &ev.ArticleURL, &ev.ArticleID, &ev.ArticleHTML}[k]
}
