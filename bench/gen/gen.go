// Package gen makes every input the benchmark sends, from the seed alone:
// the bootstrap world the servers are launched with, the load world the
// writes come from, and the byte-exact HTTP requests of each workload. The
// same seed gives the same bytes; the program under test sees only these
// bytes.
package gen

import (
	"encoding/json"
	"strconv"
	"strings"

	scilens "repro"
	"repro/internal/synth"
)

// The bootstrap world: the corpus every server is launched with and the
// in-process reference platform is built from. The launcher passes these as
// flags, so both sides are pinned here rather than to flag defaults. The
// corpus is the same for every run seed: a 30-day world is small enough
// that its size swings by several percent from seed to seed (cascade sizes
// are log-normal), which would move live heap and set-up time by as much
// and bury a real change in either. The seed varies the traffic — which
// articles are read in which order, which documents are evaluated, which
// events are ingested — not the fixture it runs against.
const (
	BootSeed          = 1
	BootDays          = 30
	BootRateScale     = 0.5
	BootReactionScale = 0.3
)

// loadSeedOffset keeps the load world's seed away from BootSeed for small
// run seeds, so the two corpora differ in content as well as in name.
const loadSeedOffset = 1000

// loadPrefix marks every id and URL path of the load world; the bootstrap
// world never produces it, so the two cannot collide.
const loadPrefix = "lw"

// BatchEvents is the bulk-ingest batch size (events per POST /api/ingest).
const BatchEvents = 64

// BootConfig is the bootstrap configuration of the stored corpus.
func BootConfig() scilens.BootstrapConfig {
	return scilens.BootstrapConfig{
		Seed: BootSeed, Days: BootDays,
		RateScale: BootRateScale, ReactionScale: BootReactionScale,
	}
}

// BootWorld generates the corpus a launched server holds.
func BootWorld() *synth.World {
	c := BootConfig()
	return synth.GenerateWorld(synth.Config{
		Seed: c.Seed, Days: c.Days, RateScale: c.RateScale, ReactionScale: c.ReactionScale,
	})
}

// loadWorld generates the load world at the given posting-rate scale.
func loadWorld(seed int64, rateScale float64) *synth.World {
	return synth.GenerateWorld(synth.Config{
		Seed: seed + loadSeedOffset, Days: BootDays,
		RateScale: rateScale, ReactionScale: BootReactionScale,
	})
}

// eventsPerRateUnit is roughly how many events a 30-day world holds per
// unit of RateScale at reaction scale 0.3 (about 6 200 articles, each with
// nine to ten reactions). It only sizes the first attempt below.
const eventsPerRateUnit = 65000

// LoadEvents returns the first n events of the load world's firehose, in
// time order, renamed so they never touch a bootstrap row. About one event
// in ten is a posting carrying article markup; the rest are reactions.
func LoadEvents(seed int64, n int) []synth.Event {
	scale := 1.3 * float64(n) / eventsPerRateUnit
	for {
		evs := loadWorld(seed, scale).Events()
		if len(evs) < n {
			scale *= 1.5
			continue
		}
		evs = evs[:n]
		for i := range evs {
			rename(&evs[i])
		}
		return evs
	}
}

// LoadArticles returns about n articles of the load world (renamed), the
// documents assess_cold posts.
func LoadArticles(seed int64, n int) []synth.Article {
	w := loadWorld(seed, float64(n)/float64(eventsPerRateUnit/10))
	arts := w.Articles
	for i := range arts {
		arts[i].ID = loadPrefix + "-" + arts[i].ID
		arts[i].URL = prefixURL(arts[i].URL)
	}
	return arts
}

func rename(ev *synth.Event) {
	ev.PostID = loadPrefix + "-" + ev.PostID
	if ev.ParentID != "" {
		ev.ParentID = loadPrefix + "-" + ev.ParentID
	}
	if ev.ArticleID != "" {
		ev.ArticleID = loadPrefix + "-" + ev.ArticleID
	}
	ev.ArticleURL = prefixURL(ev.ArticleURL)
}

// prefixURL puts the load prefix first in the URL's path; the host stays,
// because the platform resolves the outlet from it.
func prefixURL(u string) string {
	const scheme = "https://"
	slash := strings.IndexByte(u[len(scheme):], '/') + len(scheme)
	return u[:slash] + "/" + loadPrefix + u[slash:]
}

// Lanes deals events to c lanes by cascade — every event of one article
// goes to the same lane, lanes numbered by the article's order of first
// appearance modulo c — keeping time order inside each lane, so a
// connection that sends one lane never overtakes its own postings.
func Lanes(events []synth.Event, c int) [][]synth.Event {
	lanes := make([][]synth.Event, c)
	laneOf := map[string]int{}
	for _, ev := range events {
		l, ok := laneOf[ev.ArticleURL]
		if !ok {
			l = len(laneOf) % c
			laneOf[ev.ArticleURL] = l
		}
		lanes[l] = append(lanes[l], ev)
	}
	return lanes
}

// CascadeSample returns about n events of the stream that can be ingested
// on their own: the complete cascades (within events) of the articles that
// appear first, in time order. A plain prefix would not do — a firehose
// opens with postings and the reactions follow days later, so its head is
// nearly all postings where the stream as a whole has one in ten.
func CascadeSample(events []synth.Event, n int) []synth.Event {
	perArticle := map[string]int{}
	for i := range events {
		perArticle[events[i].ArticleURL]++
	}
	chosen := map[string]bool{}
	total := 0
	for i := range events {
		u := events[i].ArticleURL
		if total >= n {
			break
		}
		if !chosen[u] {
			chosen[u] = true
			total += perArticle[u]
		}
	}
	out := make([]synth.Event, 0, total)
	for i := range events {
		if chosen[events[i].ArticleURL] {
			out = append(out, events[i])
		}
	}
	return out
}

// Batch is one pre-encoded POST /api/ingest request.
type Batch struct {
	// Request is the complete HTTP/1.1 request.
	Request []byte
	// Events is how many events the body carries.
	Events int
	// LastPosting is the article URL of the batch's last posting event, ""
	// when it carries only reactions: the URL a freshness probe polls.
	LastPosting string
}

// Batches encodes a lane as block-mode ingest requests of BatchEvents
// events each (the last one may be shorter).
func Batches(lane []synth.Event) ([]Batch, error) {
	var out []Batch
	for len(lane) > 0 {
		n := min(BatchEvents, len(lane))
		body := []byte(`{"mode":"block","events":[`)
		b := Batch{Events: n}
		for i := range lane[:n] {
			ev := &lane[i]
			enc, err := ev.Encode()
			if err != nil {
				return nil, err
			}
			if i > 0 {
				body = append(body, ',')
			}
			body = append(body, enc...)
			if ev.Type == synth.EventTypePosting {
				b.LastPosting = ev.ArticleURL
			}
		}
		body = append(body, "]}"...)
		b.Request = Post("/api/ingest", body)
		out = append(out, b)
		lane = lane[n:]
	}
	return out, nil
}

// Get renders a body-less GET request for a keep-alive connection.
func Get(pathAndQuery string) []byte {
	return []byte("GET " + pathAndQuery + " HTTP/1.1\r\nHost: bench\r\n\r\n")
}

// Post renders a JSON POST request for a keep-alive connection.
func Post(path string, body []byte) []byte {
	return append(postHead(nil, path, len(body)), body...)
}

func postHead(dst []byte, path string, n int) []byte {
	dst = append(dst, "POST "...)
	dst = append(dst, path...)
	dst = append(dst, " HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: "...)
	dst = strconv.AppendInt(dst, int64(n), 10)
	return append(dst, "\r\n\r\n"...)
}

// Pick is the index request k of connection conn uses, uniform over n and a
// function of (seed, conn, k) only — so a connection's request stream does
// not depend on how fast the others ran.
func Pick(seed int64, conn, k, n int) int {
	// splitmix64 over the packed triple.
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(conn)<<48 + uint64(k)
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int(z % uint64(n))
}

// AssessURLPath is the stored-assessment read of one article URL.
func AssessURLPath(articleURL string) string {
	// Article URLs here are scheme, host, digits, dashes and slashes; only
	// ':' and '/' are not query-safe as written.
	r := strings.NewReplacer(":", "%3A", "/", "%2F")
	return "/api/assess?url=" + r.Replace(articleURL)
}

// Reads pre-renders the stored-assessment GET of every URL.
func Reads(urls []string) [][]byte {
	out := make([][]byte, len(urls))
	for i, u := range urls {
		out[i] = Get(AssessURLPath(u))
	}
	return out
}

// ArticleURLs lists a world's article URLs in article order.
func ArticleURLs(w *synth.World) []string {
	urls := make([]string, len(w.Articles))
	for i, a := range w.Articles {
		urls[i] = a.URL
	}
	return urls
}

// htmlTail is how the generator's markup ends; the unique paragraph of a
// cold document goes in front of it, inside the body.
const htmlTail = "</body>\n</html>\n"

// Cold makes the documents of assess_cold: load-world markup made unique
// per request by a trailing paragraph and a unique URL, so the platform's
// report cache (keyed by content hash and URL) can never hit.
type Cold struct {
	seed int64
	arts []coldArticle
}

type coldArticle struct {
	url  string
	head string // markup up to htmlTail
	json []byte // head as JSON string content: opening quote, no closing one
}

// NewCold prepares the documents of arts.
func NewCold(seed int64, arts []synth.Article) (*Cold, error) {
	c := &Cold{seed: seed, arts: make([]coldArticle, len(arts))}
	for i, a := range arts {
		head := strings.TrimSuffix(a.RawHTML, htmlTail)
		enc, err := json.Marshal(head)
		if err != nil {
			return nil, err
		}
		c.arts[i] = coldArticle{url: a.URL, head: head, json: enc[:len(enc)-1]}
	}
	return c, nil
}

func coldTag(conn, k int) string { return "c" + strconv.Itoa(conn) + "-" + strconv.Itoa(k) }

// Doc is the document request k of connection conn carries, as the server
// decodes it.
func (c *Cold) Doc(conn, k int) (url, html string) {
	a := &c.arts[Pick(c.seed, conn, k, len(c.arts))]
	tag := coldTag(conn, k)
	return a.url + "/" + tag,
		a.head + "<p>Reader request " + tag + " asked for this evaluation.</p>\n" + htmlTail
}

// AppendRequest appends the POST /api/assess request of Doc(conn, k) to dst.
func (c *Cold) AppendRequest(dst []byte, conn, k int) []byte {
	a := &c.arts[Pick(c.seed, conn, k, len(c.arts))]
	tag := coldTag(conn, k)
	// The tail is written pre-escaped: its only characters JSON must escape
	// are the newlines.
	const tail1, tail2 = `<p>Reader request `, ` asked for this evaluation.</p>\n</body>\n</html>\n"}`
	n := len(`{"url":"`) + len(a.url) + 1 + len(tag) + len(`","html":`) +
		len(a.json) + len(tail1) + len(tag) + len(tail2)
	dst = postHead(dst, "/api/assess", n)
	dst = append(dst, `{"url":"`...)
	dst = append(dst, a.url...)
	dst = append(dst, '/')
	dst = append(dst, tag...)
	dst = append(dst, `","html":`...)
	dst = append(dst, a.json...)
	dst = append(dst, tail1...)
	dst = append(dst, tag...)
	return append(dst, tail2...)
}
