package extract

import (
	"fmt"
	"math"
	"net/url"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

// TestParseNeverPanicsProperty fuzzes the tolerant parser with arbitrary
// byte soup: the streaming pipeline feeds it whatever the firehose fetched,
// so it must never panic and must keep its output invariants (absolute
// links, whitespace-collapsed fields) for any input.
func TestParseNeverPanicsProperty(t *testing.T) {
	f := func(doc string, base bool) bool {
		baseURL := ""
		if base {
			baseURL = "https://outlet.example/story"
		}
		art, err := Parse(doc, baseURL)
		if err != nil {
			return true // rejecting is fine; panicking is not
		}
		if bad := articleDefect(art); bad != "" {
			t.Log(bad)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// articleDefect returns what breaks Parse's output invariants in art
// (absolute links, whitespace-collapsed fields), or "".
func articleDefect(art *Article) string {
	for _, link := range art.Links {
		if !strings.Contains(link, "://") {
			return fmt.Sprintf("relative link leaked: %q", link)
		}
	}
	if strings.Contains(art.Title, "\n") || strings.Contains(art.Byline, "\n") {
		return fmt.Sprintf("unnormalised field: %q %q", art.Title, art.Byline)
	}
	return ""
}

// parseAllocBytesPerInputByte and parseAllocSlack bound what one Parse
// call allocates: the article's strings, the links that go through
// net/url, the decoded and collapsed text runs and the body parts past
// Parse's stack buffers are each linear in the input, so the bytes
// allocated are at most a constant multiple of the input length plus a
// fixed overhead. The worst input measured is a run of short relative
// links, each through url.Parse and ResolveReference: 39.4 B per input
// byte for 1 000 of `<a href=a>` after a `<p>` against a 28-byte base
// URL. 64 leaves 1.6 times that.
const (
	parseAllocBytesPerInputByte = 64
	parseAllocSlack             = 4 << 10
)

// FuzzExtractParse runs Parse on arbitrary markup and base URLs. It must
// never panic, it must return what referenceParse (the parser before the
// single pass) returns, article for article and error for error, and its
// output must keep the invariants of articleDefect. Host must agree with
// referenceHost on the base URL and with url.Parse on every link. The
// bytes Parse allocates stay within parseAllocBytesPerInputByte times the
// input length plus parseAllocSlack: no input makes the tolerant parser
// superlinear in memory. The seeds under testdata/fuzz/FuzzExtractParse
// are synthetic articles of three outlet classes, a plain-text document,
// a page of unclosed tags, a page with a 21 kB attribute and an 8 kB
// link, and links that the canonical fast path must hand to net/url.
func FuzzExtractParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, doc, baseURL string) {
		// The fuzzing engine allocates on goroutines of its own while a
		// parse runs, and one ReadMemStats pair counts that too; the bound
		// is for the parse itself, so it takes the cheapest of three more.
		art, err := Parse(doc, baseURL)
		allocated := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _ = Parse(doc, baseURL)
			runtime.ReadMemStats(&after)
			allocated = min(allocated, after.TotalAlloc-before.TotalAlloc)
		}
		if limit := uint64(parseAllocBytesPerInputByte*(len(doc)+len(baseURL)) + parseAllocSlack); allocated > limit {
			t.Fatalf("parsing %d + %d bytes allocated %d B, limit %d", len(doc), len(baseURL), allocated, limit)
		}
		want, wantErr := referenceParse(doc, baseURL)
		if (err != nil) != (wantErr != nil) || !reflect.DeepEqual(art, want) {
			t.Fatalf("Parse = %#v, %v\nreference %#v, %v", art, err, want, wantErr)
		}
		if got, want := Host(baseURL), referenceHost(baseURL); got != want {
			t.Fatalf("Host(%q) = %q, reference %q", baseURL, got, want)
		}
		if err != nil {
			return
		}
		if bad := articleDefect(art); bad != "" {
			t.Fatal(bad)
		}
		for _, link := range art.Links {
			want := ""
			if u, err := url.Parse(link); err == nil {
				want = strings.ToLower(u.Hostname())
			}
			if got := Host(link); got != want {
				t.Fatalf("Host(%q) = %q, url.Parse says %q", link, got, want)
			}
		}
	})
}

// TestParseHostileMarkup feeds adversarial but structured documents.
func TestParseHostileMarkup(t *testing.T) {
	cases := []string{
		strings.Repeat("<div>", 10000),                         // deep nesting, never closed
		"<title>" + strings.Repeat("x", 1<<16),                 // unterminated giant title
		"<a href=>empty</a><a href>none</a><p>body text here",  // degenerate attributes
		"<p>" + strings.Repeat("&amp;", 5000),                  // entity storm
		"<script>" + strings.Repeat("<p>hi</p>", 100),          // content hidden in script
		"<!-- " + strings.Repeat("-", 4096),                    // unterminated comment
		"<p class='a\" b'>quote confusion</p><p>more body</p>", // mixed quotes
		"\x00\x01\x02<p>control bytes</p>",
	}
	for i, doc := range cases {
		if _, err := Parse(doc, "https://x.example/"); err != nil {
			// Rejection is acceptable; this loop only guards panics.
			t.Logf("case %d rejected: %v", i, err)
		}
	}
}

// TestParseLinkResolution pins relative-link handling against the base URL.
func TestParseLinkResolution(t *testing.T) {
	doc := `<html><body><p>text body with words
<a href="/local/page">rel</a>
<a href="other">sibling</a>
<a href="https://abs.example/x">abs</a>
<a href="#frag">frag</a>
<a href="mailto:x@y.z">mail</a></p></body></html>`
	art, err := Parse(doc, "https://outlet.example/dir/story")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"https://outlet.example/local/page": false,
		"https://abs.example/x":             false,
	}
	for _, link := range art.Links {
		if _, ok := want[link]; ok {
			want[link] = true
		}
		if strings.HasPrefix(link, "mailto:") || strings.Contains(link, "#frag") {
			t.Errorf("non-article link leaked: %q", link)
		}
	}
	for link, seen := range want {
		if !seen {
			t.Errorf("link %q not resolved (got %v)", link, art.Links)
		}
	}
}
