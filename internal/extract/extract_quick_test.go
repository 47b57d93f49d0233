package extract

import (
	"fmt"
	"math"
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
// call allocates: the tag and text tokens, one attribute map per tag
// that has attributes, the resolved links and the joined body are each
// linear in the input, so the bytes allocated are at most a constant
// multiple of the input length plus a fixed overhead.
const (
	parseAllocBytesPerInputByte = 128
	parseAllocSlack             = 4 << 10
)

// FuzzExtractParse runs Parse on arbitrary markup and base URLs. It must
// never panic, its output must keep the invariants of articleDefect, and
// the bytes it allocates stay within parseAllocBytesPerInputByte times the
// input length plus parseAllocSlack: no input makes the tolerant parser
// superlinear in memory. The seeds under testdata/fuzz/FuzzExtractParse
// are synthetic articles of three outlet classes, a plain-text document,
// a page of unclosed tags and a page with a 21 kB attribute and an 8 kB
// link.
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
		if err != nil {
			return
		}
		if bad := articleDefect(art); bad != "" {
			t.Fatal(bad)
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
