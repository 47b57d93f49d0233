package synth

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/outlets"
	"repro/internal/socialind"
)

// Article is one generated news article with its ground truth.
type Article struct {
	// ID is the stable article identifier.
	ID string
	// OutletID is the publishing outlet.
	OutletID string
	// Rating is the outlet's quality class (denormalised for convenience).
	Rating outlets.RatingClass
	// URL is the canonical article URL.
	URL string
	// Topic is the ground-truth topic.
	Topic Topic
	// Published is the publication time.
	Published time.Time
	// Title is the generated headline (ground truth; the platform
	// re-extracts it from RawHTML).
	Title string
	// Clickbait records whether a clickbait template was used (ground
	// truth for model training).
	Clickbait bool
	// RawHTML is the full article markup as "fetched" by the pipeline.
	RawHTML string
}

// World is a generated corpus: articles plus their social cascades.
type World struct {
	// Registry is the outlet registry the world was generated against.
	Registry *outlets.Registry
	// Articles are all generated articles, sorted by publication time.
	Articles []Article
	// Cascades maps article ID to its social-media cascade (the original
	// posting first).
	Cascades map[string][]socialind.Post
	// Start and Days describe the generation window.
	Start time.Time
	Days  int
}

// Config parameterises GenerateWorld.
type Config struct {
	// Seed drives all randomness; equal seeds give identical worlds.
	Seed int64
	// Registry is the outlet registry (default: outlets.DemoShortlist()).
	Registry *outlets.Registry
	// Start is the first day (default WindowStart).
	Start time.Time
	// Days is the window length (default WindowDays).
	Days int
	// RateScale scales per-outlet daily article rates (default 1;
	// use < 1 for fast tests).
	RateScale float64
	// ReactionScale scales cascade sizes (default 1).
	ReactionScale float64
}

func (c *Config) setDefaults() {
	if c.Registry == nil {
		c.Registry = outlets.DemoShortlist()
	}
	if c.Start.IsZero() {
		c.Start = WindowStart
	}
	if c.Days <= 0 {
		c.Days = WindowDays
	}
	if c.RateScale <= 0 {
		c.RateScale = 1
	}
	if c.ReactionScale <= 0 {
		c.ReactionScale = 1
	}
}

// sciDomains is the pool of scientific reference targets (all present in
// the lexicon registry so refind classifies them as scientific).
var sciDomains = []string{
	"nature.com", "thelancet.com", "nejm.org", "science.org", "bmj.com",
	"arxiv.org", "biorxiv.org", "medrxiv.org", "who.int", "cdc.gov",
	"nih.gov", "pnas.org", "sciencedirect.com", "jamanetwork.com",
}

// blogDomains is the pool of non-outlet, non-scientific external targets.
var blogDomains = []string{
	"personal-blog.example", "opinion-site.example", "aggregator.example",
	"forum-threads.example", "video-clips.example",
}

// GenerateWorld builds the deterministic synthetic world.
func GenerateWorld(cfg Config) *World {
	cfg.setDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := &World{
		Registry: cfg.Registry,
		Cascades: make(map[string][]socialind.Post),
		Start:    cfg.Start,
		Days:     cfg.Days,
	}
	all := cfg.Registry.All() // sorted by ID: deterministic iteration
	seq := 0
	for day := 0; day < cfg.Days; day++ {
		for _, outlet := range all {
			p := Params(outlet.Rating)
			n := poisson(rng, p.DailyArticles*cfg.RateScale)
			share := p.TopicShareAt(day)
			for i := 0; i < n; i++ {
				seq++
				topic := TopicCovid
				if rng.Float64() >= share {
					topic = BackgroundTopics[rng.Intn(len(BackgroundTopics))]
				}
				art := w.genArticle(rng, outlet, p, topic, day, seq)
				w.Articles = append(w.Articles, art)
				w.Cascades[art.ID] = w.genCascade(rng, outlet, p, art, cfg.ReactionScale)
			}
		}
	}
	sort.Slice(w.Articles, func(i, j int) bool {
		if !w.Articles[i].Published.Equal(w.Articles[j].Published) {
			return w.Articles[i].Published.Before(w.Articles[j].Published)
		}
		return w.Articles[i].ID < w.Articles[j].ID
	})
	return w
}

// genArticle builds one article with embedded reference markup.
func (w *World) genArticle(rng *rand.Rand, outlet outlets.Outlet, p ClassParams, topic Topic, day, seq int) Article {
	id := fmt.Sprintf("art-%06d", seq)
	published := w.Start.AddDate(0, 0, day).
		Add(time.Duration(rng.Intn(24*60)) * time.Minute)
	url := fmt.Sprintf("https://%s/%s/%s", outlet.Domain, published.Format("2006/01/02"), id)

	clickbait := rng.Float64() < p.ClickbaitProb
	title := GenTitle(rng, topic, clickbait)
	byline := ""
	if rng.Float64() < p.BylineProb {
		byline = GenByline(rng)
	}
	sentences := 8 + rng.Intn(10)
	body := GenBody(rng, topic, sentences, p.SubjectivityLevel, p.LongWordBias)

	refs := w.genRefs(rng, outlet, p)
	html := renderHTML(title, byline, body, refs)
	return Article{
		ID:        id,
		OutletID:  outlet.ID,
		Rating:    outlet.Rating,
		URL:       url,
		Topic:     topic,
		Published: published,
		Title:     title,
		Clickbait: clickbait,
		RawHTML:   html,
	}
}

// genRefs samples the outgoing reference URLs for an article.
func (w *World) genRefs(rng *rand.Rand, outlet outlets.Outlet, p ClassParams) []string {
	n := poisson(rng, p.RefsMean)
	refs := make([]string, 0, n)
	all := w.Registry.All()
	for i := 0; i < n; i++ {
		switch {
		case rng.Float64() < p.SciRefProb:
			d := sciDomains[rng.Intn(len(sciDomains))]
			refs = append(refs, fmt.Sprintf("https://%s/item/%d", d, rng.Intn(100000)))
		case rng.Float64() < p.InternalRefProb:
			refs = append(refs, fmt.Sprintf("https://%s/archive/%d", outlet.Domain, rng.Intn(100000)))
		default:
			if rng.Float64() < 0.5 && len(all) > 1 {
				other := all[rng.Intn(len(all))]
				if other.ID == outlet.ID {
					other = all[(rng.Intn(len(all)-1)+1+indexOf(all, outlet.ID))%len(all)]
				}
				refs = append(refs, fmt.Sprintf("https://%s/story/%d", other.Domain, rng.Intn(100000)))
			} else {
				d := blogDomains[rng.Intn(len(blogDomains))]
				refs = append(refs, fmt.Sprintf("https://%s/post/%d", d, rng.Intn(100000)))
			}
		}
	}
	return refs
}

func indexOf(all []outlets.Outlet, id string) int {
	for i, o := range all {
		if o.ID == id {
			return i
		}
	}
	return 0
}

// renderHTML assembles the article markup, weaving reference links into
// body paragraphs and a "see also" section.
func renderHTML(title, byline, body string, refs []string) string {
	var b strings.Builder
	b.WriteString("<html>\n<head>\n<title>")
	b.WriteString(escape(title))
	b.WriteString("</title>\n")
	if byline != "" {
		fmt.Fprintf(&b, "<meta name=\"author\" content=\"%s\">\n", escape(byline))
	}
	b.WriteString("</head>\n<body>\n<h1>")
	b.WriteString(escape(title))
	b.WriteString("</h1>\n")
	if byline != "" {
		fmt.Fprintf(&b, "<p class=\"byline\">By %s</p>\n", escape(byline))
	}
	// Split the body into paragraphs of ~3 sentences, attaching links.
	sentences := strings.SplitAfter(body, ". ")
	refIdx := 0
	for i := 0; i < len(sentences); i += 3 {
		end := i + 3
		if end > len(sentences) {
			end = len(sentences)
		}
		para := strings.Join(sentences[i:end], "")
		b.WriteString("<p>")
		b.WriteString(escape(strings.TrimSpace(para)))
		if refIdx < len(refs) {
			fmt.Fprintf(&b, " <a href=\"%s\">(source)</a>", refs[refIdx])
			refIdx++
		}
		b.WriteString("</p>\n")
	}
	// Remaining references go into a "see also" block (still in-body so
	// the extractor collects them; real outlets do the same).
	if refIdx < len(refs) {
		b.WriteString("<p>Related coverage:")
		for ; refIdx < len(refs); refIdx++ {
			fmt.Fprintf(&b, " <a href=\"%s\">related</a>", refs[refIdx])
		}
		b.WriteString("</p>\n")
	}
	b.WriteString("</body>\n</html>\n")
	return b.String()
}

func escape(s string) string {
	s = strings.ReplaceAll(s, "&", "&amp;")
	s = strings.ReplaceAll(s, "<", "&lt;")
	s = strings.ReplaceAll(s, ">", "&gt;")
	return s
}

// genCascade samples the social cascade for an article.
func (w *World) genCascade(rng *rand.Rand, outlet outlets.Outlet, p ClassParams, art Article, scale float64) []socialind.Post {
	rootID := "post-" + art.ID
	posts := []socialind.Post{{
		ID:         rootID,
		Kind:       socialind.Original,
		UserID:     outlet.SocialHandle,
		Text:       art.Title,
		Time:       art.Published.Add(time.Duration(rng.Intn(60)) * time.Minute),
		ArticleURL: art.URL,
	}}
	count := int(math.Round(lognormal(rng, p.ReactionLogMean, p.ReactionLogStd) * scale))
	const maxReactions = 20000
	if count > maxReactions {
		count = maxReactions
	}
	rootTime := posts[0].Time
	for i := 0; i < count; i++ {
		id := fmt.Sprintf("%s-r%d", rootID, i)
		parent := rootID
		if len(posts) > 1 && rng.Float64() < 0.2 {
			parent = posts[1+rng.Intn(len(posts)-1)].ID
		}
		at := rootTime.Add(time.Duration(1+rng.Intn(72*60)) * time.Minute)
		r := rng.Float64()
		switch {
		case r < 0.45: // like
			posts = append(posts, socialind.Post{
				ID: id, ParentID: parent, Kind: socialind.Like,
				UserID: fmt.Sprintf("user-%d", rng.Intn(1<<20)), Time: at,
				ArticleURL: art.URL,
			})
		case r < 0.75: // reshare
			posts = append(posts, socialind.Post{
				ID: id, ParentID: parent, Kind: socialind.Reshare,
				UserID: fmt.Sprintf("user-%d", rng.Intn(1<<20)), Time: at,
				ArticleURL: art.URL,
			})
		default: // reply with stance-bearing text
			stance := 0
			sr := rng.Float64()
			switch {
			case sr < p.DenyShare:
				stance = 2
			case sr < p.DenyShare+p.SupportShare:
				stance = 1
			}
			posts = append(posts, socialind.Post{
				ID: id, ParentID: parent, Kind: socialind.Reply,
				UserID: fmt.Sprintf("user-%d", rng.Intn(1<<20)),
				Text:   GenReply(rng, stance), Time: at,
				ArticleURL: art.URL,
			})
		}
	}
	return posts
}

// poisson samples Poisson(lambda) with Knuth's method (lambda is small in
// this generator).
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1000 {
			return k
		}
	}
}

// lognormal samples exp(N(mu, sigma)).
func lognormal(rng *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(rng.NormFloat64()*sigma + mu)
}
