package gen

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/synth"
)

// requestStream renders the first requests of every workload for a seed:
// what the connections would put on the wire.
func requestStream(t *testing.T, seed int64) []byte {
	t.Helper()
	var out []byte
	reads := Reads(ArticleURLs(BootWorld()))
	for conn := 0; conn < 2; conn++ {
		for k := 0; k < 50; k++ {
			out = append(out, reads[Pick(seed, conn, k, len(reads))]...)
		}
	}
	cold, err := NewCold(seed, LoadArticles(seed, 50))
	if err != nil {
		t.Fatal(err)
	}
	for conn := 0; conn < 2; conn++ {
		for k := 0; k < 20; k++ {
			out = cold.AppendRequest(out, conn, k)
		}
	}
	for _, lane := range Lanes(LoadEvents(seed, 1500), 2) {
		bs, err := Batches(lane)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range bs {
			out = append(out, b.Request...)
		}
	}
	return out
}

func TestSameSeedSameBytes(t *testing.T) {
	a, b := requestStream(t, 5), requestStream(t, 5)
	if !bytes.Equal(a, b) {
		t.Fatal("two generations from seed 5 differ")
	}
	if bytes.Equal(a, requestStream(t, 6)) {
		t.Fatal("seeds 5 and 6 generate the same request stream")
	}
}

func TestLoadWorldNeverCollidesWithBootstrap(t *testing.T) {
	const seed = 5
	boot := BootWorld()
	ids, urls := map[string]bool{}, map[string]bool{}
	for _, a := range boot.Articles {
		ids[a.ID], urls[a.URL] = true, true
		for _, p := range boot.Cascades[a.ID] {
			ids[p.ID] = true
		}
	}
	evs := LoadEvents(seed, 5000)
	if len(evs) != 5000 {
		t.Fatalf("asked for 5000 events, got %d", len(evs))
	}
	postings := 0
	seen := map[string]bool{}
	for _, ev := range evs {
		if ids[ev.PostID] || (ev.ArticleID != "" && ids[ev.ArticleID]) || urls[ev.ArticleURL] {
			t.Fatalf("load event %s (%s) collides with the bootstrap world", ev.PostID, ev.ArticleURL)
		}
		if ev.Type == synth.EventTypePosting {
			postings++
			seen[ev.ArticleURL] = true
			if ev.ArticleHTML == "" {
				t.Fatalf("posting %s carries no markup", ev.PostID)
			}
		} else if !seen[ev.ArticleURL] {
			t.Fatalf("reaction %s arrives before its posting", ev.PostID)
		}
	}
	if share := float64(postings) / float64(len(evs)); share < 0.05 || share > 0.2 {
		t.Errorf("postings are %.0f%% of events, want about a tenth", 100*share)
	}
	for _, a := range LoadArticles(seed, 100) {
		if ids[a.ID] || urls[a.URL] {
			t.Fatalf("load article %s collides with the bootstrap world", a.ID)
		}
	}
}

func TestLanesKeepCascadesTogetherAndOrdered(t *testing.T) {
	evs := LoadEvents(5, 3000)
	lanes := Lanes(evs, 3)
	owner := map[string]int{}
	total := 0
	for l, lane := range lanes {
		total += len(lane)
		for i, ev := range lane {
			if o, ok := owner[ev.ArticleURL]; ok && o != l {
				t.Fatalf("cascade of %s is split over lanes %d and %d", ev.ArticleURL, o, l)
			}
			owner[ev.ArticleURL] = l
			if i > 0 && ev.Time.Before(lane[i-1].Time) {
				t.Fatalf("lane %d is out of time order at %d", l, i)
			}
		}
	}
	if total != len(evs) {
		t.Errorf("lanes hold %d events, want %d", total, len(evs))
	}
}

func TestCascadeSampleIsSelfContained(t *testing.T) {
	evs := LoadEvents(5, 20000)
	sample := CascadeSample(evs, 2000)
	if len(sample) < 2000 || len(sample) > 4000 {
		t.Fatalf("asked for about 2000 events, got %d", len(sample))
	}
	posted := map[string]bool{}
	postings := 0
	for i, ev := range sample {
		if i > 0 && ev.Time.Before(sample[i-1].Time) {
			t.Fatalf("sample out of time order at %d", i)
		}
		if ev.Type == synth.EventTypePosting {
			posted[ev.ArticleURL] = true
			postings++
		} else if !posted[ev.ArticleURL] {
			t.Fatalf("reaction %s has no posting in the sample", ev.PostID)
		}
	}
	if share := float64(postings) / float64(len(sample)); share > 0.25 {
		t.Errorf("postings are %.0f%% of the sample; the stream has about a tenth", 100*share)
	}
}

// readRequest parses one rendered request the way the server will.
func readRequest(t *testing.T, raw []byte) (*http.Request, []byte) {
	t.Helper()
	req, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(raw)))
	if err != nil {
		t.Fatalf("server would reject the request: %v\n%s", err, raw[:min(len(raw), 200)])
	}
	body, err := io.ReadAll(req.Body)
	if err != nil {
		t.Fatal(err)
	}
	return req, body
}

func TestBatchesAreValidIngestRequests(t *testing.T) {
	evs := LoadEvents(5, 200)
	bs, err := Batches(evs)
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 4 || bs[0].Events != 64 || bs[3].Events != 8 {
		t.Fatalf("200 events made %d batches, first %d, last %d", len(bs), bs[0].Events, bs[len(bs)-1].Events)
	}
	var got []synth.Event
	for _, b := range bs {
		req, body := readRequest(t, b.Request)
		if req.Method != "POST" || req.URL.Path != "/api/ingest" {
			t.Fatalf("request is %s %s", req.Method, req.URL.Path)
		}
		var payload struct {
			Mode   string        `json:"mode"`
			Events []synth.Event `json:"events"`
		}
		if err := json.Unmarshal(body, &payload); err != nil {
			t.Fatal(err)
		}
		if payload.Mode != "block" || len(payload.Events) != b.Events {
			t.Fatalf("mode %q with %d events, want block with %d", payload.Mode, len(payload.Events), b.Events)
		}
		last := ""
		for _, ev := range payload.Events {
			if ev.Type == synth.EventTypePosting {
				last = ev.ArticleURL
			}
		}
		if last != b.LastPosting {
			t.Errorf("LastPosting = %q, body says %q", b.LastPosting, last)
		}
		got = append(got, payload.Events...)
	}
	for i := range evs {
		if got[i].PostID != evs[i].PostID || !got[i].Time.Equal(evs[i].Time) {
			t.Fatalf("event %d changed in transit: %+v", i, got[i])
		}
	}
}

func TestColdRequestCarriesTheDocument(t *testing.T) {
	arts := LoadArticles(5, 50)
	for _, a := range arts {
		if !strings.HasSuffix(a.RawHTML, htmlTail) {
			t.Fatalf("article %s does not end in %q; the unique paragraph would land outside the body", a.ID, htmlTail)
		}
	}
	cold, err := NewCold(5, arts)
	if err != nil {
		t.Fatal(err)
	}
	urls := map[string]bool{}
	for conn := 0; conn < 2; conn++ {
		for k := 0; k < 100; k++ {
			req, body := readRequest(t, cold.AppendRequest(nil, conn, k))
			if req.Method != "POST" || req.URL.Path != "/api/assess" {
				t.Fatalf("request is %s %s", req.Method, req.URL.Path)
			}
			var payload struct{ URL, HTML string }
			if err := json.Unmarshal(body, &payload); err != nil {
				t.Fatalf("body is not JSON: %v", err)
			}
			url, html := cold.Doc(conn, k)
			if payload.URL != url || payload.HTML != html {
				t.Fatalf("request (%d,%d) carries %q, Doc says %q", conn, k, payload.URL, url)
			}
			if urls[url] {
				t.Fatalf("URL %s used twice: the report cache could hit", url)
			}
			urls[url] = true
		}
	}
}

func TestReadsAddressTheArticle(t *testing.T) {
	u := "https://poor-2.example/2020/01/15/art-000056"
	req, _ := readRequest(t, Get(AssessURLPath(u)))
	if got := req.URL.Query().Get("url"); got != u {
		t.Errorf("server would read url=%q, want %q", got, u)
	}
	if got := prefixURL(u); got != "https://poor-2.example/lw/2020/01/15/art-000056" {
		t.Errorf("prefixURL = %q", got)
	}
}

func TestPickIsUniformEnough(t *testing.T) {
	const n, draws = 10, 100000
	var hist [n]int
	for k := 0; k < draws; k++ {
		hist[Pick(7, k%4, k, n)]++
	}
	for i, h := range hist {
		if h < draws/n*9/10 || h > draws/n*11/10 {
			t.Errorf("bucket %d drawn %d times of %d", i, h, draws)
		}
	}
}
