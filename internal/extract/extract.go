// Package extract turns raw article documents (the markup fetched by the
// streaming pipeline) into structured articles: title, author byline, body
// text and outgoing links. The original platform runs this transformation
// as part of the Spark ingestion jobs (paper §3.3); here it is a pure
// function so both the streaming path and the batch path can share it.
//
// The parser is a tolerant hand-rolled tag scanner, not a full HTML5
// implementation: it handles the subset of markup news CMSes emit (and the
// synthetic corpus generates) — nested tags, attributes with quoted values,
// entities for the common cases, comments and script/style skipping.
package extract

import (
	"errors"
	"net/url"
	"slices"
	"strings"

	"repro/internal/textutil"
)

// ErrEmptyDocument is returned when no textual content can be extracted.
var ErrEmptyDocument = errors.New("extract: empty document")

// Article is a structured news article.
type Article struct {
	// URL is the canonical article URL (as provided by the caller).
	URL string
	// Title is the headline (from <title> or the first <h1>).
	Title string
	// Byline is the author attribution ("Jane Doe"), empty when absent.
	Byline string
	// Body is the concatenated paragraph text.
	Body string
	// Links are the absolute URLs referenced from the body.
	Links []string
}

// HasByline reports whether an author attribution was found (one of the
// content quality indicators in paper §3.1).
func (a *Article) HasByline() bool { return a.Byline != "" }

// token is one tag or text run of a document. Its strings are spans of
// the document: nothing is copied, and nothing is decoded until Parse
// uses it.
type token struct {
	tag     string // lower-case tag name, "" for text
	attrs   string // a start tag's attribute text
	text    string // a text run holding more than whitespace, entities not decoded
	closing bool
}

// scanner walks a document one token at a time. It skips comments,
// doctypes, processing instructions and script/style payloads; an
// unterminated comment, tag or payload ends the document.
type scanner struct {
	doc string
	i   int
}

// next returns the next token, or false at the end of the document.
func (s *scanner) next() (token, bool) {
	doc := s.doc
	for s.i < len(doc) {
		i := s.i
		if doc[i] != '<' {
			end := strings.IndexByte(doc[i:], '<')
			if end < 0 {
				end = len(doc) - i
			}
			s.i = i + end
			if text := doc[i:s.i]; strings.TrimSpace(text) != "" {
				return token{text: text}, true
			}
			continue
		}
		if strings.HasPrefix(doc[i:], "<!--") {
			end := strings.Index(doc[i+4:], "-->")
			if end < 0 {
				break
			}
			s.i = i + 4 + end + 3
			continue
		}
		end := strings.IndexByte(doc[i:], '>')
		if end < 0 {
			break // trailing junk
		}
		s.i = i + end + 1
		tok := parseTag(doc[i+1 : i+end])
		if tok.tag == "" {
			continue
		}
		if !tok.closing && (tok.tag == "script" || tok.tag == "style") {
			if skip := indexFold(doc[s.i:], "</"+tok.tag); skip < 0 {
				s.i = len(doc)
			} else {
				s.i += skip
			}
		}
		return tok, true
	}
	s.i = len(doc)
	return token{}, false
}

// parseTag parses the inside of <...>: name plus attribute text. An
// empty tag, a doctype or a processing instruction has no name.
func parseTag(raw string) token {
	raw = strings.TrimSpace(strings.TrimSuffix(raw, "/"))
	if raw == "" {
		return token{}
	}
	var tok token
	if raw[0] == '/' {
		tok.closing = true
		raw = strings.TrimSpace(raw[1:])
	}
	if raw == "" || raw[0] == '!' || raw[0] == '?' {
		return token{} // doctype / processing instruction
	}
	// Tag name: up to whitespace.
	nameEnd := strings.IndexAny(raw, " \t\n\r")
	if nameEnd < 0 {
		nameEnd = len(raw)
	}
	tok.tag = strings.ToLower(raw[:nameEnd])
	if !tok.closing { // closing tags carry no attributes
		tok.attrs = strings.TrimSpace(raw[nameEnd:])
	}
	return tok
}

// indexFold returns the index of the first ASCII case-insensitive
// occurrence of sub in s, or -1 — strings.Index(strings.ToLower(s), sub)
// without copying the remainder of the document per probe.
func indexFold(s, sub string) int {
	n := len(sub)
	if n == 0 {
		return 0
	}
	for i := 0; i+n <= len(s); i++ {
		if foldEqualASCII(s[i:i+n], sub) {
			return i
		}
	}
	return -1
}

// foldEqualASCII compares equal-length strings ignoring ASCII case.
func foldEqualASCII(a, b string) bool {
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// attr returns the value of the attribute key (lower-case) in a tag's
// attribute text s, entities decoded, or "" when there is none. Values
// are single-, double- or un-quoted; a bare attribute has the value "",
// and of repeated attributes the last one counts. Only the returned value
// is decoded.
func attr(s, key string) string {
	val := ""
	i := 0
	n := len(s)
	for i < n {
		// Skip whitespace.
		for i < n && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r') {
			i++
		}
		if i >= n {
			break
		}
		// Key.
		start := i
		for i < n && s[i] != '=' && s[i] != ' ' && s[i] != '\t' && s[i] != '\n' {
			i++
		}
		k := strings.ToLower(s[start:i])
		if k == "" {
			i++
			continue
		}
		// Skip whitespace before '='.
		for i < n && (s[i] == ' ' || s[i] == '\t') {
			i++
		}
		if i >= n || s[i] != '=' {
			if k == key {
				val = "" // bare attribute
			}
			continue
		}
		i++ // consume '='
		for i < n && (s[i] == ' ' || s[i] == '\t') {
			i++
		}
		if i >= n {
			if k == key {
				val = ""
			}
			break
		}
		var v string
		switch s[i] {
		case '"', '\'':
			q := s[i]
			i++
			vstart := i
			for i < n && s[i] != q {
				i++
			}
			v = s[vstart:i]
			if i < n {
				i++ // closing quote
			}
		default:
			vstart := i
			for i < n && s[i] != ' ' && s[i] != '\t' && s[i] != '\n' {
				i++
			}
			v = s[vstart:i]
		}
		if k == key {
			val = v
		}
	}
	return decodeEntities(val)
}

// decodeEntities handles the entities that occur in news markup.
var entityReplacer = strings.NewReplacer(
	"&amp;", "&", "&lt;", "<", "&gt;", ">", "&quot;", `"`,
	"&#39;", "'", "&apos;", "'", "&nbsp;", " ", "&mdash;", "—",
	"&ndash;", "–", "&hellip;", "…", "&rsquo;", "’", "&lsquo;", "‘",
)

func decodeEntities(s string) string {
	if !strings.ContainsRune(s, '&') {
		return s
	}
	return entityReplacer.Replace(s)
}

// textOf is a text run as the article shows it: entities decoded,
// whitespace collapsed.
func textOf(run string) string {
	return textutil.CollapseWhitespace(decodeEntities(run))
}

// Parse extracts the structured article from markup. baseURL resolves
// relative links; pass the article URL. Plain text (no tags) is accepted:
// the first line becomes the title and the rest the body.
//
// Parse is one pass over the document: tags, attribute values and text
// runs are spans of doc, and only what the article keeps is decoded.
// Everything the article holds is a fresh string, never a span of doc,
// so an article kept past the request (a stored row keeps its title)
// does not pin its document.
func Parse(doc, baseURL string) (*Article, error) {
	var (
		title, h1, byline       string
		inTitle, inH1, inByline bool
		depthSkip               int // inside nav/header/footer/aside
		tokens                  int
		lead                    string // a leading text run, held back: the whole document if no token follows
		linkBuf                 [16]string
		partBuf                 [32]string
	)
	links, bodyParts := linkBuf[:0], partBuf[:0]
	res := resolver{baseURL: baseURL}
	sc := scanner{doc: doc}
	for tok, ok := sc.next(); ok; tok, ok = sc.next() {
		tokens++
		if tokens == 1 && tok.tag == "" {
			lead = tok.text
			continue
		}
		if lead != "" { // another token follows: the lead opens the body
			if text := textOf(lead); text != "" {
				bodyParts = append(bodyParts, text)
			}
			lead = ""
		}
		if tok.tag != "" {
			switch tok.tag {
			case "title":
				inTitle = !tok.closing
			case "h1":
				inH1 = !tok.closing
			case "meta":
				if !tok.closing {
					if name := attr(tok.attrs, "name"); name == "author" || name == "byline" {
						if content := attr(tok.attrs, "content"); content != "" {
							byline = textutil.CollapseWhitespace(content)
						}
					}
				}
			case "a":
				if !tok.closing {
					if href := attr(tok.attrs, "href"); href != "" {
						if abs := res.resolve(href); abs != "" {
							links = append(links, abs)
						}
					}
				}
			case "nav", "header", "footer", "aside":
				if tok.closing {
					if depthSkip > 0 {
						depthSkip--
					}
				} else {
					depthSkip++
				}
			case "p", "span", "div":
				if !tok.closing && strings.Contains(strings.ToLower(attr(tok.attrs, "class")), "byline") {
					inByline = true
				} else if tok.closing {
					inByline = false
				}
			}
			continue
		}
		// Text token: decoded only where the article keeps it.
		switch {
		case inTitle:
			if title == "" {
				title = textOf(tok.text)
			}
		case inH1:
			if h1 == "" {
				h1 = textOf(tok.text)
			}
		case inByline:
			if byline == "" {
				byline = stripByPrefix(textOf(tok.text))
			}
		case depthSkip > 0:
			// Navigation chrome: ignore.
		default:
			if text := textOf(tok.text); text != "" {
				bodyParts = append(bodyParts, text)
			}
		}
	}
	if tokens == 0 {
		return nil, ErrEmptyDocument
	}
	if lead != "" {
		return parsePlainText(decodeEntities(lead), baseURL)
	}

	if title == "" {
		title = h1
	}
	if byline == "" {
		byline = findBylineInBody(bodyParts)
	}
	body := strings.Join(bodyParts, " ")
	if title == "" && body == "" {
		return nil, ErrEmptyDocument
	}
	if len(bodyParts) == 1 {
		body = strings.Clone(body) // a body joined from several parts is fresh already
	}
	art := &Article{URL: baseURL, Title: strings.Clone(title), Byline: strings.Clone(byline), Body: body}
	if len(links) > 0 {
		art.Links = slices.Clone(links)
	}
	return art, nil
}

// parsePlainText is Parse of a document that is one text run: the first
// line is the title and the rest the body.
func parsePlainText(text, baseURL string) (*Article, error) {
	title, body, _ := strings.Cut(strings.TrimSpace(text), "\n")
	title, body = textutil.CollapseWhitespace(title), textutil.CollapseWhitespace(body)
	if title == "" && body == "" {
		return nil, ErrEmptyDocument
	}
	return &Article{URL: baseURL, Title: strings.Clone(title), Body: strings.Clone(body)}, nil
}

// resolver makes links absolute against the article URL, which it parses
// only when a link first needs it.
type resolver struct {
	baseURL string
	base    *url.URL
	parsed  bool
}

// resolve makes href absolute and keeps only http(s) references to other
// documents: fragment-only links point back into the same page and would
// count as self-references downstream, so they are dropped. The link it
// returns is a fresh string, never a span of the document.
func (r *resolver) resolve(href string) string {
	trimmed := strings.TrimSpace(href)
	if trimmed == "" || strings.HasPrefix(trimmed, "#") {
		return ""
	}
	if _, ok := canonicalHost(trimmed); ok {
		return strings.Clone(trimmed) // what net/url would make of it
	}
	u, err := url.Parse(trimmed)
	if err != nil {
		return ""
	}
	if !r.parsed {
		r.base, _ = url.Parse(r.baseURL)
		r.parsed = true
	}
	if r.base != nil {
		u = r.base.ResolveReference(u)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return ""
	}
	if u.Host == "" {
		return ""
	}
	u.Fragment = "" // the reference target is the document, not the anchor
	return u.String()
}

const (
	canonicalHostBytes = "abcdefghijklmnopqrstuvwxyz0123456789.-"
	canonicalPathBytes = canonicalHostBytes + "ABCDEFGHIJKLMNOPQRSTUVWXYZ_~/"
)

// canonicalHost returns the host of link when link is an absolute http(s)
// URL that url.Parse, ResolveReference and String give back unchanged: a
// lower-case scheme, a non-empty host of [a-z0-9.-], a path of
// [A-Za-z0-9-._~/] in which no segment starts with a dot (so none is "."
// or ".."), and no port, userinfo, query, fragment or escape. For any
// other link it returns false.
func canonicalHost(link string) (string, bool) {
	rest, ok := strings.CutPrefix(link, "https://")
	if !ok {
		if rest, ok = strings.CutPrefix(link, "http://"); !ok {
			return "", false
		}
	}
	end := strings.IndexByte(rest, '/')
	if end < 0 {
		end = len(rest)
	}
	host, path := rest[:end], rest[end:]
	if host == "" || strings.Trim(host, canonicalHostBytes) != "" ||
		strings.Trim(path, canonicalPathBytes) != "" || strings.Contains(path, "/.") {
		return "", false
	}
	return host, true
}

// hasByPrefix reports whether strings.ToLower(s) starts with "by ": only
// ASCII bytes lower-case to 'b', 'y' and ' '.
func hasByPrefix(s string) bool {
	return len(s) >= 3 && foldEqualASCII(s[:3], "by ")
}

// stripByPrefix removes a leading "By " from a byline.
func stripByPrefix(s string) string {
	if hasByPrefix(s) {
		return strings.TrimSpace(s[3:])
	}
	return s
}

// findBylineInBody looks for a "By First Last" pattern in the first few
// paragraphs.
func findBylineInBody(parts []string) string {
	limit := 3
	if len(parts) < limit {
		limit = len(parts)
	}
	for _, p := range parts[:limit] {
		if !hasByPrefix(p) {
			continue
		}
		candidate := strings.TrimSpace(p[3:])
		// Accept only short capitalised name-like spans.
		words := strings.Fields(candidate)
		if len(words) < 2 || len(words) > 4 {
			continue
		}
		ok := true
		for _, w := range words {
			r := w[0]
			if r < 'A' || r > 'Z' {
				ok = false
				break
			}
		}
		if ok {
			return candidate
		}
	}
	return ""
}

// Host returns the lower-cased host of a URL, "" when unparseable.
func Host(rawURL string) string {
	if host, ok := canonicalHost(rawURL); ok {
		return host
	}
	u, err := url.Parse(rawURL)
	if err != nil {
		return ""
	}
	return strings.ToLower(u.Hostname())
}
