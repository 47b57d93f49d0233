package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/synth"
)

// decoderSeeds are FuzzRequestDecoders' seeds beside the FuzzIngestBody
// corpus copied into testdata/fuzz/FuzzRequestDecoders/: each names an
// encoding/json behaviour the hand decoders must reproduce.
var decoderSeeds = []string{
	// Escapes, surrogates and invalid UTF-8.
	`{"url":"a\"b\\c\/d\b\f\n\r\t\u0041\u00e9\u20ac","html":"\u003cp\u003ex\u0026y\u003c/p\u003e"}`,
	`{"html":"\ud83d\ude00 \ud83d x \ude00 \ud83d\u0041 \ud83d\ud83d\ude00 \uDBFF\uDFFF"}`,
	"{\"html\":\"a\xffb\xc3\x28\xed\xa0\x80\xef\xbf\xbd\"}",
	"{\"html\":\"\xff\xff\xff\"}",
	"{\"html\":\"\\u0041\xff\xff\xff\xff\"}",
	"{\"url\":\"\\n\\n\xff\xff\\t\xff\",\"html\":\"\xe2\x82\"}",
	`{"url":"\x"}`, `{"url":"\u12"}`, `{"url":"\uZZZZ"}`, `{"url":"\'"}`, `{"url":"\ud83d\uZZZZ"}`,
	"{\"url\":\"a\tb\"}", `{"url":"abc`, `{"url":"\`,
	// Case-folded keys: ASCII case, the Kelvin sign (k), the long s (s);
	// the dotless i folds to nothing ASCII.
	`{"URL":"u","Html":"h"}`,
	`{"EVENTS":[{"` + "\u212a" + `ind":"share","ARTICLE_URL":"x","po` + "\u017f" + `t_id":"p"}],"Mode":"shed"}`,
	`{"events":[{"k\u0131nd":"x","T\u0130me":"y","article_url":"u"}]}`,
	`{"u\u0072l":"escaped key","\u0068tml":"h"}`,
	// Duplicate keys, null members, nested unknown values.
	`{"url":"a","url":null,"html":"x","html":"y","extra":{"a":[1,2,{"b":null}],"c":-1.5e+3,"d":[true,false,"s"]}}`,
	`{"events":[{"type":"a","kind":"k1"},{"type":"b","kind":"k2"}],"events":[{"type":"c"}],"events":[{"text":"t"},{"post_id":"p"},{}]}`,
	`{"events":[{"type":"a"}],"events":null,"events":[{"kind":"k"}]}`,
	`{"events":[{"type":"a"}],"events":[],"mode":null}`,
	`{"events":[null,{"type":"x","article_url":"u","time":null}]}`,
	`{"events":[{"type":"a","type":"b","article_url":null,"extra":{"x":[]}}]}`,
	// Times: an escape, offsets, null and non-strings.
	`{"events":[{"article_url":"x","time":"2020-03-01T00:00:00\u005a"}]}`,
	`{"events":[{"article_url":"x","time":"2020-03-01T12:30:00.5+02:00"}]}`,
	`{"events":[{"article_url":"x","time":"2020-03-01T12:30:00Z"},{"time":"2020-13-01T00:00:00Z"}]}`,
	`{"events":[{"time":5}]}`, `{"events":[{"time":{}}]}`, `{"events":[{"time":["2020-03-01T00:00:00Z"]}]}`,
	// Trailing data and whitespace.
	`{"url":"a","html":"b"} {}`, `{"html":"x"}x`, "{\"html\":\"x\"}  \n\t\r", `null`, ` null `, `nul`, `nullx`,
	// Wrong types and bad syntax.
	`[]`, `""`, `5`, `true`, `{"url":5}`, `{"events":"x"}`, `{"events":[1]}`, `{"events":{}}`, `{"mode":true}`,
	`{"x":[0,-0,1.5,1e5,1E-5,-12.34e+56]}`, `{"x":01}`, `{"x":1.}`, `{"x":-}`, `{"x":.5}`, `{"x":+1}`, `{"x":1e}`,
	`{"x":tru}`, `{"x":nul`, `{"x":1,}`, `{,}`, `{"x" 1}`, `{"x":[1,]}`, `{"x":[1 2]}`, `{x:1}`, ``, ` `, `{`,
	"\xef\xbb\xbf{}",
	// Nesting: encoding/json allows 10 000 levels and refuses 10 001.
	`{"x":` + strings.Repeat("[", maxNesting-1) + strings.Repeat("]", maxNesting-1) + `}`,
	`{"x":` + strings.Repeat("[", maxNesting) + strings.Repeat("]", maxNesting) + `}`,
	`{"events":[{"x":` + strings.Repeat(`{"a":`, maxNesting-3) + `1` + strings.Repeat("}", maxNesting-3) + `}]}`,
	`{"events":[{"x":` + strings.Repeat(`{"a":`, maxNesting-2) + `1` + strings.Repeat("}", maxNesting-2) + `}]}`,
}

// FuzzRequestDecoders holds the one-pass decoders to encoding/json: on
// any bytes, decodeAssessRequest and decodeIngestRequest accept exactly
// what json.Unmarshal accepts into assessRequest and ingestRequest, and
// decode the same value (reflect.DeepEqual, event times compared with
// Equal). Seeds: decoderSeeds and testdata/fuzz/FuzzRequestDecoders/.
func FuzzRequestDecoders(f *testing.F) {
	for _, seed := range decoderSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var wantA assessRequest
		wantErr := json.Unmarshal(body, &wantA)
		gotA, err := decodeAssessRequest(bytes.Clone(body))
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("assess: decoder error %v, encoding/json error %v", err, wantErr)
		}
		if err == nil && gotA != wantA {
			t.Fatalf("assess: decoded %+q, encoding/json %+q", gotA, wantA)
		}

		var wantI ingestRequest
		wantErr = json.Unmarshal(body, &wantI)
		gotI, err := decodeIngestRequest(bytes.Clone(body))
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("ingest: decoder error %v, encoding/json error %v", err, wantErr)
		}
		if err == nil {
			if diff := ingestDiff(gotI, wantI); diff != "" {
				t.Fatalf("ingest: %s", diff)
			}
		}
	})
}

// ingestDiff describes how two decoded ingest bodies differ ("" for not
// at all): reflect.DeepEqual, with each event's time compared by Equal.
func ingestDiff(got, want ingestRequest) string {
	if got.Mode != want.Mode {
		return fmt.Sprintf("mode %q, encoding/json %q", got.Mode, want.Mode)
	}
	if (got.Events == nil) != (want.Events == nil) || len(got.Events) != len(want.Events) {
		return fmt.Sprintf("events %#v, encoding/json %#v", got.Events, want.Events)
	}
	for i := range got.Events {
		g, w := got.Events[i], want.Events[i]
		if !g.Time.Equal(w.Time) {
			return fmt.Sprintf("events[%d].time %v, encoding/json %v", i, g.Time, w.Time)
		}
		g.Time, w.Time = time.Time{}, time.Time{}
		if !reflect.DeepEqual(g, w) {
			return fmt.Sprintf("events[%d] %+q, encoding/json %+q", i, g, w)
		}
	}
	return ""
}

// benchShapedBodies returns an assess body shaped as the benchmark sends
// them (json.Marshal of a synthetic article's url and markup) and a body
// of the first 64 events of the world's firehose.
func benchShapedBodies(t testing.TB) (assess []byte, ingest []byte, events []synth.Event) {
	t.Helper()
	w := synth.GenerateWorld(synth.Config{Seed: 49, Days: 4, RateScale: 0.3, ReactionScale: 0.3})
	a := w.Articles[0]
	assess, err := json.Marshal(assessRequest{URL: a.URL, HTML: a.RawHTML})
	if err != nil {
		t.Fatal(err)
	}
	events = w.Events()
	if len(events) < 64 {
		t.Fatalf("world has %d events, want 64", len(events))
	}
	events = events[:64]
	ingest, err = json.Marshal(ingestRequest{Events: events})
	if err != nil {
		t.Fatal(err)
	}
	return assess, ingest, events
}

// TestRequestDecodeAllocations pins what decoding allocates: a
// bench-shaped assess body its url and html strings, and a 64-event batch
// one string per non-empty string field (Go keeps one-byte strings in a
// static table, so those cost nothing) plus the events slice, grown one
// element at a time as encoding/json grows it.
func TestRequestDecodeAllocations(t *testing.T) {
	assess, ingest, events := benchShapedBodies(t)
	buf := make([]byte, len(assess))
	allocs := testing.AllocsPerRun(50, func() {
		copy(buf, assess)
		if _, err := decodeAssessRequest(buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 2 {
		t.Errorf("decoding a %d-byte assess body: %v allocations, want 2 (url, html)", len(assess), allocs)
	}

	want := 0
	var grown []synth.Event
	for _, ev := range events {
		for _, s := range []string{ev.Type, ev.PostID, ev.ParentID, ev.Kind, ev.OutletID, ev.UserID,
			ev.Text, ev.ArticleURL, ev.ArticleID, ev.ArticleHTML} {
			if len(s) > 1 {
				want++
			}
		}
		if len(grown) == cap(grown) {
			want++
		}
		grown = append(grown, synth.Event{})
	}
	buf = make([]byte, len(ingest))
	allocs = testing.AllocsPerRun(20, func() {
		copy(buf, ingest)
		if _, err := decodeIngestRequest(buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != float64(want) {
		t.Errorf("decoding a %d-event, %d-byte batch: %v allocations, want %d", len(events), len(ingest), allocs, want)
	}
}

// TestRequestDecodeDoesNotPinBody checks that no decoded string is a span
// of the body: a stored event string that was one would keep its whole
// batch alive.
func TestRequestDecodeDoesNotPinBody(t *testing.T) {
	assess, ingest, _ := benchShapedBodies(t)
	pinned := func(body []byte, what, s string) {
		if s == "" {
			return
		}
		start := uintptr(unsafe.Pointer(unsafe.SliceData(body)))
		if p := uintptr(unsafe.Pointer(unsafe.StringData(s))); p >= start && p < start+uintptr(cap(body)) {
			t.Errorf("%s %.40q points into the body", what, s)
		}
	}
	bodies := [][]byte{assess, []byte(`{"url":"plain","html":"no escapes at all"}`)}
	for _, body := range bodies {
		req, err := decodeAssessRequest(body)
		if err != nil {
			t.Fatal(err)
		}
		pinned(body, "url", req.URL)
		pinned(body, "html", req.HTML)
	}
	req, err := decodeIngestRequest(ingest)
	if err != nil {
		t.Fatal(err)
	}
	pinned(ingest, "mode", req.Mode)
	for i := range req.Events {
		ev := &req.Events[i]
		for k := range timeKey {
			pinned(ingest, fmt.Sprintf("events[%d].%s", i, eventKeys[k]), *eventString(ev, k))
		}
	}
}

// TestDecoderKnowsEveryField checks by reflection that the decoders'
// key lists are exactly the json names of the request structs' fields,
// and that each key decodes into the field that carries its name: a field
// added to synth.Event fails here instead of being silently dropped.
func TestDecoderKnowsEveryField(t *testing.T) {
	shapes := []struct {
		v    any // pointer to a request struct
		keys []string
	}{
		{new(assessRequest), assessKeys},
		{new(ingestRequest), ingestKeys},
		{new(synth.Event), eventKeys},
	}
	for _, s := range shapes {
		typ := reflect.TypeOf(s.v).Elem()
		var names []string
		for i := range typ.NumField() {
			name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
			names = append(names, name)
			if !slices.Contains(s.keys, name) {
				t.Errorf("%s.%s (json %q) is not a key its decoder handles", typ, typ.Field(i).Name, name)
			}
		}
		if len(names) != len(s.keys) {
			t.Errorf("%s has json names %q, its decoder handles %q", typ, names, s.keys)
		}
	}
	if eventKeys[timeKey] != "time" {
		t.Fatalf("eventKeys[timeKey] = %q", eventKeys[timeKey])
	}

	// Every string field gets a value naming it; the round trip through
	// the decoders must put each back where it came from.
	var ev synth.Event
	v := reflect.ValueOf(&ev).Elem()
	for i := range v.NumField() {
		if f := v.Field(i); f.Kind() == reflect.String {
			f.SetString("value of " + v.Type().Field(i).Name)
		}
	}
	ev.Time = time.Date(2020, 3, 1, 12, 30, 0, 0, time.UTC)
	want := ingestRequest{Events: []synth.Event{ev}, Mode: "shed"}
	body, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeIngestRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	if diff := ingestDiff(got, want); diff != "" {
		t.Error(diff)
	}
	areq, err := decodeAssessRequest([]byte(`{"url":"value of URL","html":"value of HTML"}`))
	if err != nil || areq != (assessRequest{URL: "value of URL", HTML: "value of HTML"}) {
		t.Errorf("assess round trip: %+v, %v", areq, err)
	}
}

// TestURLCapAtTheEdge pins the 2 KiB bound on a url that relative links
// resolve against: 2 048 bytes pass and 2 049 get 400 naming the bound,
// on POST /api/assess (url) and POST /api/ingest (each event's
// article_url).
func TestURLCapAtTheEdge(t *testing.T) {
	_, w, srv := apiFixture(t)
	base := w.Articles[0].URL + "/"
	long := func(n int) string { return base + strings.Repeat("a", n-len(base)) }
	for _, n := range []int{maxURLBytes, maxURLBytes + 1} {
		rec, body := doJSON(t, srv, "POST", "/api/assess", assessRequest{URL: long(n), HTML: w.Articles[0].RawHTML})
		if n <= maxURLBytes && rec.Code != http.StatusOK {
			t.Errorf("assess, %d-byte url: %d %s", n, rec.Code, rec.Body.String())
		}
		if n > maxURLBytes && (rec.Code != http.StatusBadRequest || !strings.Contains(fmt.Sprint(body["error"]), "2048")) {
			t.Errorf("assess, %d-byte url: %d %s, want 400 naming 2048", n, rec.Code, rec.Body.String())
		}
	}

	p, ingestSrv := streamFixture(t, core.Config{})
	posting := firstPosting(49)
	for _, n := range []int{maxURLBytes, maxURLBytes + 1} {
		ev := posting
		ev.ArticleURL = long(n)
		before := p.StreamStats().Enqueued
		rec, body := doJSON(t, ingestSrv, "POST", "/api/ingest", ingestRequest{Events: []synth.Event{ev}})
		enqueued := p.StreamStats().Enqueued - before
		if n <= maxURLBytes && (rec.Code != http.StatusAccepted || enqueued != 1) {
			t.Errorf("ingest, %d-byte article_url: %d %s, %d enqueued", n, rec.Code, rec.Body.String(), enqueued)
		}
		if n > maxURLBytes && (rec.Code != http.StatusBadRequest || enqueued != 0 ||
			!strings.Contains(fmt.Sprint(body["error"]), "2048")) {
			t.Errorf("ingest, %d-byte article_url: %d %s, %d enqueued; want 400 naming 2048",
				n, rec.Code, rec.Body.String(), enqueued)
		}
	}
	p.Pipeline.Flush()
}

// TestReadBodyPreallocationIsBounded: a declared Content-Length sizes
// the body buffer only up to maxBodyPrealloc, so a request that declares
// 4 MiB and sends a few bytes costs what it sends.
func TestReadBodyPreallocationIsBounded(t *testing.T) {
	_, srv := streamFixture(t, core.Config{})
	var least uint64
	for i := range 3 {
		req := httptest.NewRequest("POST", "/api/assess", strings.NewReader(`{"html":""}`))
		req.ContentLength = maxAssessBody
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		srv.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("empty html: %d %s", rec.Code, rec.Body.String())
		}
		if n := after.TotalAlloc - before.TotalAlloc; i == 0 || n < least {
			least = n
		}
	}
	if least > 2*maxBodyPrealloc {
		t.Errorf("a request declaring %d bytes and sending 11 allocated %d bytes", maxAssessBody, least)
	}
}

// TestLongURLManyRelativeLinksIsRefused is the request that used to cost
// 31 MB: a 10 kB url and 1 000 relative links (20 kB of body), each of
// which copied the url's path. It gets 400 before extraction, and
// serving it allocates less than allocBudget.
func TestLongURLManyRelativeLinksIsRefused(t *testing.T) {
	const allocBudget = 256 << 10
	_, _, srv := apiFixture(t)
	body, err := json.Marshal(assessRequest{
		URL:  "https://outlet.example/" + strings.Repeat("p/", 5000),
		HTML: "<html><body><p>Links.</p>" + strings.Repeat("<a href=a>", 1000) + "</body></html>",
	})
	if err != nil {
		t.Fatal(err)
	}
	var least uint64
	for i := range 3 {
		var before, after runtime.MemStats
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/api/assess", bytes.NewReader(body))
		runtime.ReadMemStats(&before)
		srv.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%d-byte body with a 10 kB url: %d %s", len(body), rec.Code, rec.Body.String())
		}
		if n := after.TotalAlloc - before.TotalAlloc; i == 0 || n < least {
			least = n
		}
	}
	if least > allocBudget {
		t.Errorf("refusing a %d-byte body allocated %d bytes, budget %d", len(body), least, allocBudget)
	}
}

// BenchmarkRequestDecode compares the one-pass decoders with
// json.Unmarshal on the bench-shaped bodies.
func BenchmarkRequestDecode(b *testing.B) {
	assess, ingest, _ := benchShapedBodies(b)
	for _, c := range []struct {
		name string
		body []byte
		fn   func([]byte) error
	}{
		{"assess/one-pass", assess, func(p []byte) error { _, err := decodeAssessRequest(p); return err }},
		{"assess/encoding-json", assess, func(p []byte) error { return json.Unmarshal(p, new(assessRequest)) }},
		{"ingest/one-pass", ingest, func(p []byte) error { _, err := decodeIngestRequest(p); return err }},
		{"ingest/encoding-json", ingest, func(p []byte) error { return json.Unmarshal(p, new(ingestRequest)) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			buf := make([]byte, len(c.body))
			b.SetBytes(int64(len(c.body)))
			b.ReportAllocs()
			for b.Loop() {
				copy(buf, c.body)
				if err := c.fn(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
