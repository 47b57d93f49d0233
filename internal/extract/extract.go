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

// token types for the scanner.
type htmlToken struct {
	tag     string // lower-case tag name, "" for text
	text    string // text content for text tokens
	attrs   map[string]string
	closing bool
}

// scanHTML tokenises markup into tags and text runs.
func scanHTML(doc string) []htmlToken {
	var toks []htmlToken
	i := 0
	n := len(doc)
	for i < n {
		if doc[i] == '<' {
			// Comment?
			if strings.HasPrefix(doc[i:], "<!--") {
				end := strings.Index(doc[i+4:], "-->")
				if end < 0 {
					break
				}
				i += 4 + end + 3
				continue
			}
			end := strings.IndexByte(doc[i:], '>')
			if end < 0 {
				// Trailing junk.
				break
			}
			raw := doc[i+1 : i+end]
			i += end + 1
			tok := parseTag(raw)
			if tok.tag == "" {
				continue
			}
			toks = append(toks, tok)
			// Skip script/style payloads entirely.
			if !tok.closing && (tok.tag == "script" || tok.tag == "style") {
				idx := indexFold(doc[i:], "</"+tok.tag)
				if idx < 0 {
					break
				}
				i += idx
			}
			continue
		}
		next := strings.IndexByte(doc[i:], '<')
		var text string
		if next < 0 {
			text = doc[i:]
			i = n
		} else {
			text = doc[i : i+next]
			i += next
		}
		if strings.TrimSpace(text) != "" {
			toks = append(toks, htmlToken{text: decodeEntities(text)})
		}
	}
	return toks
}

// parseTag parses the inside of <...>: name plus attributes.
func parseTag(raw string) htmlToken {
	raw = strings.TrimSpace(strings.TrimSuffix(raw, "/"))
	if raw == "" {
		return htmlToken{}
	}
	tok := htmlToken{}
	if raw[0] == '/' {
		tok.closing = true
		raw = strings.TrimSpace(raw[1:])
	}
	if raw == "" || raw[0] == '!' || raw[0] == '?' {
		return htmlToken{} // doctype / processing instruction
	}
	// Tag name: up to whitespace.
	nameEnd := len(raw)
	for j := 0; j < len(raw); j++ {
		if raw[j] == ' ' || raw[j] == '\t' || raw[j] == '\n' || raw[j] == '\r' {
			nameEnd = j
			break
		}
	}
	tok.tag = strings.ToLower(raw[:nameEnd])
	// Closing tags carry no attributes, and most opening tags in news
	// markup have none either: skip the attribute-map allocation unless
	// there is something to parse.
	if rest := strings.TrimSpace(raw[nameEnd:]); !tok.closing && rest != "" {
		tok.attrs = parseAttrs(rest)
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

// parseAttrs parses key="value" pairs (single, double or no quotes).
func parseAttrs(s string) map[string]string {
	attrs := make(map[string]string)
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
		key := strings.ToLower(s[start:i])
		if key == "" {
			i++
			continue
		}
		// Skip whitespace before '='.
		for i < n && (s[i] == ' ' || s[i] == '\t') {
			i++
		}
		if i >= n || s[i] != '=' {
			attrs[key] = "" // bare attribute
			continue
		}
		i++ // consume '='
		for i < n && (s[i] == ' ' || s[i] == '\t') {
			i++
		}
		if i >= n {
			attrs[key] = ""
			break
		}
		var val string
		switch s[i] {
		case '"', '\'':
			q := s[i]
			i++
			vstart := i
			for i < n && s[i] != q {
				i++
			}
			val = s[vstart:i]
			if i < n {
				i++ // closing quote
			}
		default:
			vstart := i
			for i < n && s[i] != ' ' && s[i] != '\t' && s[i] != '\n' {
				i++
			}
			val = s[vstart:i]
		}
		attrs[key] = decodeEntities(val)
	}
	return attrs
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

// Parse extracts the structured article from markup. baseURL resolves
// relative links; pass the article URL. Plain text (no tags) is accepted:
// the first line becomes the title and the rest the body.
func Parse(doc, baseURL string) (*Article, error) {
	art := &Article{URL: baseURL}
	toks := scanHTML(doc)
	if len(toks) == 0 {
		return nil, ErrEmptyDocument
	}

	// Plain-text fallback: no tags at all.
	if len(toks) == 1 && toks[0].tag == "" {
		lines := strings.SplitN(strings.TrimSpace(toks[0].text), "\n", 2)
		art.Title = strings.Clone(textutil.CollapseWhitespace(lines[0]))
		if len(lines) > 1 {
			art.Body = strings.Clone(textutil.CollapseWhitespace(lines[1]))
		}
		if art.Title == "" && art.Body == "" {
			return nil, ErrEmptyDocument
		}
		return art, nil
	}

	base, _ := url.Parse(baseURL)
	var bodyParts []string
	var inTitle, inH1, inByline bool
	var h1 string
	depthSkip := 0 // inside nav/header/footer/aside

	for _, tok := range toks {
		if tok.tag != "" {
			switch tok.tag {
			case "title":
				inTitle = !tok.closing
			case "h1":
				inH1 = !tok.closing
			case "meta":
				if !tok.closing {
					name := tok.attrs["name"]
					if (name == "author" || name == "byline") && tok.attrs["content"] != "" {
						art.Byline = textutil.CollapseWhitespace(tok.attrs["content"])
					}
				}
			case "a":
				if !tok.closing {
					if href := tok.attrs["href"]; href != "" {
						if abs := resolveLink(base, href); abs != "" {
							art.Links = append(art.Links, abs)
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
				if !tok.closing && strings.Contains(strings.ToLower(tok.attrs["class"]), "byline") {
					inByline = true
				} else if tok.closing {
					inByline = false
				}
			}
			continue
		}
		// Text token.
		text := textutil.CollapseWhitespace(tok.text)
		if text == "" {
			continue
		}
		switch {
		case inTitle:
			if art.Title == "" {
				art.Title = text
			}
		case inH1:
			if h1 == "" {
				h1 = text
			}
		case inByline:
			if art.Byline == "" {
				art.Byline = stripByPrefix(text)
			}
		case depthSkip > 0:
			// Navigation chrome: ignore.
		default:
			bodyParts = append(bodyParts, text)
		}
	}

	if art.Title == "" {
		art.Title = h1
	}
	art.Body = strings.Join(bodyParts, " ")
	if art.Byline == "" {
		art.Byline = findBylineInBody(bodyParts)
	}
	// Text runs are cut from doc without a copy. Copy what the article
	// keeps of them, so that an article held by the report cache does not
	// pin its whole document. A body joined from several parts is a fresh
	// string already.
	art.Title = strings.Clone(art.Title)
	art.Byline = strings.Clone(art.Byline)
	if len(bodyParts) == 1 {
		art.Body = strings.Clone(art.Body)
	}
	if art.Title == "" && art.Body == "" {
		return nil, ErrEmptyDocument
	}
	return art, nil
}

// resolveLink makes href absolute against base and keeps only http(s)
// references to other documents: fragment-only links point back into the
// same page and would count as self-references downstream, so they are
// dropped.
func resolveLink(base *url.URL, href string) string {
	trimmed := strings.TrimSpace(href)
	if trimmed == "" || strings.HasPrefix(trimmed, "#") {
		return ""
	}
	u, err := url.Parse(trimmed)
	if err != nil {
		return ""
	}
	if base != nil {
		u = base.ResolveReference(u)
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

// stripByPrefix removes a leading "By " from a byline.
func stripByPrefix(s string) string {
	lower := strings.ToLower(s)
	if strings.HasPrefix(lower, "by ") {
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
		lower := strings.ToLower(p)
		if !strings.HasPrefix(lower, "by ") {
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
	u, err := url.Parse(rawURL)
	if err != nil {
		return ""
	}
	return strings.ToLower(u.Hostname())
}
