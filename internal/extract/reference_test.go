package extract

// The parser as it was before Parse became a single pass over the
// markup, kept verbatim (names prefixed with ref) as the oracle that
// FuzzExtractParse compares Parse and Host against. Do not change it to
// follow the parser: a difference between the two is a finding.

import (
	"net/url"
	"strings"

	"repro/internal/textutil"
)

// token types for the scanner.
type refToken struct {
	tag     string // lower-case tag name, "" for text
	text    string // text content for text tokens
	attrs   map[string]string
	closing bool
}

// refScanHTML tokenises markup into tags and text runs.
func refScanHTML(doc string) []refToken {
	var toks []refToken
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
			tok := refParseTag(raw)
			if tok.tag == "" {
				continue
			}
			toks = append(toks, tok)
			// Skip script/style payloads entirely.
			if !tok.closing && (tok.tag == "script" || tok.tag == "style") {
				idx := refIndexFold(doc[i:], "</"+tok.tag)
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
			toks = append(toks, refToken{text: refDecodeEntities(text)})
		}
	}
	return toks
}

// refParseTag parses the inside of <...>: name plus attributes.
func refParseTag(raw string) refToken {
	raw = strings.TrimSpace(strings.TrimSuffix(raw, "/"))
	if raw == "" {
		return refToken{}
	}
	tok := refToken{}
	if raw[0] == '/' {
		tok.closing = true
		raw = strings.TrimSpace(raw[1:])
	}
	if raw == "" || raw[0] == '!' || raw[0] == '?' {
		return refToken{} // doctype / processing instruction
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
		tok.attrs = refParseAttrs(rest)
	}
	return tok
}

// refIndexFold returns the index of the first ASCII case-insensitive
// occurrence of sub in s, or -1 — strings.Index(strings.ToLower(s), sub)
// without copying the remainder of the document per probe.
func refIndexFold(s, sub string) int {
	n := len(sub)
	if n == 0 {
		return 0
	}
	for i := 0; i+n <= len(s); i++ {
		if refFoldEqualASCII(s[i:i+n], sub) {
			return i
		}
	}
	return -1
}

// refFoldEqualASCII compares equal-length strings ignoring ASCII case.
func refFoldEqualASCII(a, b string) bool {
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

// refParseAttrs parses key="value" pairs (single, double or no quotes).
func refParseAttrs(s string) map[string]string {
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
		attrs[key] = refDecodeEntities(val)
	}
	return attrs
}

// refDecodeEntities handles the entities that occur in news markup.
var refEntityReplacer = strings.NewReplacer(
	"&amp;", "&", "&lt;", "<", "&gt;", ">", "&quot;", `"`,
	"&#39;", "'", "&apos;", "'", "&nbsp;", " ", "&mdash;", "—",
	"&ndash;", "–", "&hellip;", "…", "&rsquo;", "’", "&lsquo;", "‘",
)

func refDecodeEntities(s string) string {
	if !strings.ContainsRune(s, '&') {
		return s
	}
	return refEntityReplacer.Replace(s)
}

// referenceParse extracts the structured article from markup. baseURL resolves
// relative links; pass the article URL. Plain text (no tags) is accepted:
// the first line becomes the title and the rest the body.
func referenceParse(doc, baseURL string) (*Article, error) {
	art := &Article{URL: baseURL}
	toks := refScanHTML(doc)
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
						if abs := refResolveLink(base, href); abs != "" {
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
				art.Byline = refStripByPrefix(text)
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
		art.Byline = refFindBylineInBody(bodyParts)
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

// refResolveLink makes href absolute against base and keeps only http(s)
// references to other documents: fragment-only links point back into the
// same page and would count as self-references downstream, so they are
// dropped.
func refResolveLink(base *url.URL, href string) string {
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

// refStripByPrefix removes a leading "By " from a byline.
func refStripByPrefix(s string) string {
	lower := strings.ToLower(s)
	if strings.HasPrefix(lower, "by ") {
		return strings.TrimSpace(s[3:])
	}
	return s
}

// refFindBylineInBody looks for a "By First Last" pattern in the first few
// paragraphs.
func refFindBylineInBody(parts []string) string {
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

// referenceHost returns the lower-cased host of a URL, "" when unparseable.
func referenceHost(rawURL string) string {
	u, err := url.Parse(rawURL)
	if err != nil {
		return ""
	}
	return strings.ToLower(u.Hostname())
}
