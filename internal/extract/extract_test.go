package extract

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"unsafe"
)

const sampleDoc = `<!DOCTYPE html>
<html>
<head>
  <title>Vaccine Trial Shows Promise</title>
  <meta name="author" content="Jane Doe">
</head>
<body>
  <nav><a href="/home">Home</a> | <a href="/science">Science</a></nav>
  <h1>Vaccine Trial Shows Promise</h1>
  <p>A phase-3 trial published in <a href="https://nature.com/articles/x1">Nature</a>
     showed strong efficacy.</p>
  <p>The authors caution that more data is needed. See the
     <a href="/2020/related-story">related story</a> and the
     <a href="https://who.int/reports/2">WHO report</a>.</p>
  <footer>Copyright 2020 <a href="/terms">Terms</a></footer>
</body>
</html>`

func TestParseFullDocument(t *testing.T) {
	art, err := Parse(sampleDoc, "https://outlet.example/2020/vaccine-trial")
	if err != nil {
		t.Fatal(err)
	}
	if art.Title != "Vaccine Trial Shows Promise" {
		t.Errorf("title: %q", art.Title)
	}
	if art.Byline != "Jane Doe" {
		t.Errorf("byline: %q", art.Byline)
	}
	if !art.HasByline() {
		t.Error("HasByline")
	}
	if !strings.Contains(art.Body, "phase-3 trial") || !strings.Contains(art.Body, "more data is needed") {
		t.Errorf("body: %q", art.Body)
	}
	// Nav/footer text excluded.
	if strings.Contains(art.Body, "Home") || strings.Contains(art.Body, "Copyright") {
		t.Errorf("chrome leaked into body: %q", art.Body)
	}
	// Links: nav links are still links (reference classification filters
	// later), relative links resolved.
	joined := strings.Join(art.Links, " ")
	if !strings.Contains(joined, "https://nature.com/articles/x1") {
		t.Errorf("nature link missing: %v", art.Links)
	}
	if !strings.Contains(joined, "https://outlet.example/2020/related-story") {
		t.Errorf("relative link not resolved: %v", art.Links)
	}
	if !strings.Contains(joined, "https://who.int/reports/2") {
		t.Errorf("who link missing: %v", art.Links)
	}
}

func TestParseBylineClass(t *testing.T) {
	doc := `<html><body><h1>Headline</h1>
	<p class="byline">By John Smith</p>
	<p>Body text here.</p></body></html>`
	art, err := Parse(doc, "https://outlet.example/a")
	if err != nil {
		t.Fatal(err)
	}
	if art.Byline != "John Smith" {
		t.Errorf("byline: %q", art.Byline)
	}
	if strings.Contains(art.Body, "John Smith") {
		t.Errorf("byline leaked into body: %q", art.Body)
	}
}

func TestParseBylineInBodyText(t *testing.T) {
	doc := `<html><body><h1>Headline</h1>
	<p>By Maria Garcia Lopez</p>
	<p>The actual body starts here.</p></body></html>`
	art, err := Parse(doc, "https://outlet.example/a")
	if err != nil {
		t.Fatal(err)
	}
	if art.Byline != "Maria Garcia Lopez" {
		t.Errorf("byline from body: %q", art.Byline)
	}
}

func TestParseNoByline(t *testing.T) {
	doc := `<html><body><h1>Headline</h1><p>Anonymous content.</p>
	<p>by no capitalized name follows</p></body></html>`
	art, err := Parse(doc, "https://outlet.example/a")
	if err != nil {
		t.Fatal(err)
	}
	if art.HasByline() {
		t.Errorf("unexpected byline: %q", art.Byline)
	}
}

func TestParseTitleFallsBackToH1(t *testing.T) {
	doc := `<html><body><h1>Only H1 Here</h1><p>text</p></body></html>`
	art, err := Parse(doc, "")
	if err != nil {
		t.Fatal(err)
	}
	if art.Title != "Only H1 Here" {
		t.Errorf("title: %q", art.Title)
	}
}

func TestParseEntities(t *testing.T) {
	doc := `<html><head><title>Cats &amp; Dogs &mdash; A Study</title></head>
	<body><p>Fish &lt;3 chips &quot;forever&quot;.</p></body></html>`
	art, err := Parse(doc, "")
	if err != nil {
		t.Fatal(err)
	}
	if art.Title != "Cats & Dogs — A Study" {
		t.Errorf("title entities: %q", art.Title)
	}
	if !strings.Contains(art.Body, `Fish <3 chips "forever".`) {
		t.Errorf("body entities: %q", art.Body)
	}
}

func TestParseSkipsScriptAndComments(t *testing.T) {
	doc := `<html><body><!-- hidden comment --><script>var x = "<p>not text</p>";</script>
	<style>p { color: red }</style><p>Visible.</p></body></html>`
	art, err := Parse(doc, "")
	if err != nil {
		t.Fatal(err)
	}
	if art.Body != "Visible." {
		t.Errorf("body: %q", art.Body)
	}
}

func TestParsePlainText(t *testing.T) {
	art, err := Parse("Headline Line\nBody sentence one. Body sentence two.", "u")
	if err != nil {
		t.Fatal(err)
	}
	if art.Title != "Headline Line" {
		t.Errorf("title: %q", art.Title)
	}
	if !strings.Contains(art.Body, "Body sentence one.") {
		t.Errorf("body: %q", art.Body)
	}
}

func TestParseEmpty(t *testing.T) {
	if _, err := Parse("", "u"); !errors.Is(err, ErrEmptyDocument) {
		t.Errorf("empty: %v", err)
	}
	if _, err := Parse("   \n  ", "u"); !errors.Is(err, ErrEmptyDocument) {
		t.Errorf("blank: %v", err)
	}
	if _, err := Parse("<html><body></body></html>", "u"); !errors.Is(err, ErrEmptyDocument) {
		t.Errorf("tags only: %v", err)
	}
}

func TestParseMalformedMarkup(t *testing.T) {
	// Unclosed tags, stray brackets: parser must not panic and should
	// recover the text.
	doc := `<html><body><p>Broken <b>markup<p>More text here`
	art, err := Parse(doc, "u")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(art.Body, "More text here") {
		t.Errorf("body: %q", art.Body)
	}
	// Unterminated tag at the end.
	if _, err := Parse("<p>text</p><a href=", "u"); err != nil {
		t.Errorf("trailing junk: %v", err)
	}
}

func TestLinkFiltering(t *testing.T) {
	doc := `<html><body><p>
	<a href="mailto:x@example.com">mail</a>
	<a href="javascript:alert(1)">js</a>
	<a href="ftp://files.example/x">ftp</a>
	<a href="https://ok.example/page">ok</a>
	<a href="#fragment">frag</a>
	text</p></body></html>`
	art, err := Parse(doc, "https://outlet.example/a")
	if err != nil {
		t.Fatal(err)
	}
	// "#fragment" points back into the same page and is dropped — it is
	// not a reference to another document and would otherwise count as a
	// self-reference in the context indicators.
	if len(art.Links) != 1 {
		t.Fatalf("links: %v", art.Links)
	}
	if art.Links[0] != "https://ok.example/page" {
		t.Errorf("first link: %q", art.Links[0])
	}
}

func TestAttributeParsingVariants(t *testing.T) {
	doc := `<html><body>
	<a href='https://single.example/q'>single</a>
	<a href=https://bare.example/q>bare</a>
	<a class="x" href="https://multi.example/q" rel=nofollow>multi</a>
	<p>t</p></body></html>`
	art, err := Parse(doc, "")
	if err != nil {
		t.Fatal(err)
	}
	hosts := map[string]bool{}
	for _, l := range art.Links {
		hosts[Host(l)] = true
	}
	for _, h := range []string{"single.example", "bare.example", "multi.example"} {
		if !hosts[h] {
			t.Errorf("missing link host %s (links=%v)", h, art.Links)
		}
	}
}

func TestHost(t *testing.T) {
	if Host("https://WWW.Example.COM/path?q=1") != "www.example.com" {
		t.Error("host lowering")
	}
	if Host("://bad") != "" {
		t.Error("bad url")
	}
}

// TestParseDoesNotPinDocument: an article can outlive its document (a
// stored row keeps its title), so no field may be a substring of the
// markup — one short title or link would keep the whole request body
// alive.
func TestParseDoesNotPinDocument(t *testing.T) {
	docs := []string{
		sampleDoc,
		`<html><head><meta name="author" content="Ann Lee"></head><body><h1>Short</h1><p>One paragraph.</p></body></html>`,
		`<p class="byline">By Bob Ray</p><p>Only part</p>`,
		`<p>Links <a href="https://nature.com/x">canonical</a> <a href=" https://who.int/y ">trimmed</a> <a href="/rel">relative</a></p>`,
		"Plain Title\nPlain body text.",
	}
	for _, doc := range docs {
		art, err := Parse(doc, "https://outlet.example/a")
		if err != nil {
			t.Fatal(err)
		}
		fields := map[string]string{"title": art.Title, "byline": art.Byline, "body": art.Body}
		for i, link := range art.Links {
			fields[fmt.Sprintf("link %d", i)] = link
		}
		start := uintptr(unsafe.Pointer(unsafe.StringData(doc)))
		for name, field := range fields {
			if field == "" {
				continue
			}
			if p := uintptr(unsafe.Pointer(unsafe.StringData(field))); p >= start && p < start+uintptr(len(doc)) {
				t.Errorf("%q: %s %q points into the document", doc[:20], name, field)
			}
		}
	}
}

// synthDoc is a document as the synthetic corpus writes one: a meta and
// a class byline, three cited links and a link-free closing paragraph.
const synthDoc = `<html>
<head>
<title>Experts weigh evidence on the markets</title>
<meta name="author" content="Maria Rossi">
</head>
<body>
<h1>Experts weigh evidence on the markets</h1>
<p class="byline">By Maria Rossi</p>
<p>Investors forecast market volatility, citing jobs data. <a href="https://bmj.com/item/39332">(source)</a></p>
<p>Regulators flagged unemployment data, citing jobs data. <a href="https://mixed-9.example/archive/99666">(source)</a></p>
<p>Economists revised trade balances, citing quantitative data. <a href="https://mixed-7.example/story/68851">(source)</a></p>
<p>Regulators forecast inflation figures, citing trade data.</p>
</body>
</html>`

// TestParseAllocations pins Parse to the allocations of the article it
// returns: the struct, the Links slice, one string per link, the title,
// the byline and the body. Tags, attributes and text runs are spans of
// the document, and canonical links skip net/url.
func TestParseAllocations(t *testing.T) {
	const url = "https://mixed-9.example/2020/01/15/art-000069"
	art, err := Parse(synthDoc, url)
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Links) != 3 || art.Byline != "Maria Rossi" || art.Title == "" || art.Body == "" {
		t.Fatalf("unexpected article %#v", art)
	}
	want := float64(2 + len(art.Links) + 3)
	if n := testing.AllocsPerRun(100, func() { _, _ = Parse(synthDoc, url) }); n != want {
		t.Errorf("Parse allocates %v times, want %v", n, want)
	}
}
