package refind

import (
	"math"
	"strings"
	"testing"

	"repro/internal/extract"
	"repro/internal/lexicon"
	"repro/internal/outlets"
)

func classifier(t *testing.T) *Classifier {
	t.Helper()
	return NewClassifier(outlets.DemoShortlist())
}

// classifyOne classifies one link the way Analyze does for an article
// published on articleHost.
func (c *Classifier) classifyOne(rawURL, articleHost string) Reference {
	return c.classifyURL(rawURL, articleHost, c.outletID(articleHost))
}

func TestClassifyURLClasses(t *testing.T) {
	c := classifier(t)
	articleHost := "excellent-1.example"
	cases := []struct {
		url  string
		want RefClass
	}{
		{"https://excellent-1.example/other-story", Internal},
		{"https://www.excellent-1.example/second", Internal},
		{"https://excellent-2.example/story", External},
		{"https://random-blog.example/post", External},
		{"https://nature.com/articles/x", Scientific},
		{"https://arxiv.org/abs/2003.1", Scientific},
		{"https://cdc.gov/guidance", Scientific},
		{"https://physics.mit.edu/paper", Scientific},
	}
	for _, tc := range cases {
		ref := c.classifyOne(tc.url, articleHost)
		if ref.Class != tc.want {
			t.Errorf("classifyOne(%q) = %v, want %v", tc.url, ref.Class, tc.want)
		}
	}
}

func TestClassifyURLOutletResolution(t *testing.T) {
	c := classifier(t)
	ref := c.classifyOne("https://good-3.example/story", "excellent-1.example")
	if ref.Class != External || ref.TargetOutlet != "good-3" {
		t.Errorf("cross-outlet: %+v", ref)
	}
	// Subdomain of the article's own outlet.
	ref = c.classifyOne("https://blogs.excellent-1.example/story", "excellent-1.example")
	if ref.Class != Internal {
		t.Errorf("subdomain internal: %+v", ref)
	}
}

func TestScientificSubclass(t *testing.T) {
	c := classifier(t)
	ref := c.classifyOne("https://nature.com/x", "a.example")
	if ref.SciClass != lexicon.SciJournal {
		t.Errorf("journal subclass: %v", ref.SciClass)
	}
	ref = c.classifyOne("https://arxiv.org/x", "a.example")
	if ref.SciClass != lexicon.SciRepository {
		t.Errorf("repository subclass: %v", ref.SciClass)
	}
	ref = c.classifyOne("https://other.example/x", "a.example")
	if ref.SciClass != lexicon.SciNone {
		t.Errorf("non-scientific subclass: %v", ref.SciClass)
	}
}

func TestAnalyzeSummary(t *testing.T) {
	c := classifier(t)
	art := &extract.Article{
		URL: "https://excellent-1.example/covid-story",
		Links: []string{
			"https://excellent-1.example/related-1", // internal
			"https://excellent-1.example/related-2", // internal
			"https://good-2.example/scoop",          // external
			"https://nature.com/articles/s1",        // scientific
			"https://who.int/report",                // scientific
		},
	}
	ind := c.Analyze(art)
	if ind.InternalCount != 2 || ind.ExternalCount != 1 || ind.ScientificCount != 2 {
		t.Fatalf("counts: %d %d %d", ind.InternalCount, ind.ExternalCount, ind.ScientificCount)
	}
	if math.Abs(ind.ScientificRatio-0.4) > 1e-9 {
		t.Errorf("ratio: %v", ind.ScientificRatio)
	}
	// weighted = 2*1 + 1*0.5 + 2*0.1 = 2.7; strength = 2.7/4
	if math.Abs(ind.SourceStrength-0.675) > 1e-9 {
		t.Errorf("strength: %v", ind.SourceStrength)
	}
	if len(ind.References) != 5 {
		t.Errorf("references: %d", len(ind.References))
	}
}

func TestAnalyzeNoLinks(t *testing.T) {
	c := classifier(t)
	ind := c.Analyze(&extract.Article{URL: "https://excellent-1.example/x"})
	if ind.ScientificRatio != 0 || ind.SourceStrength != 0 {
		t.Errorf("no links: %+v", ind)
	}
}

func TestSourceStrengthSaturates(t *testing.T) {
	c := classifier(t)
	art := &extract.Article{URL: "https://a.example/x"}
	for i := 0; i < 20; i++ {
		art.Links = append(art.Links, "https://nature.com/a")
	}
	ind := c.Analyze(art)
	if ind.SourceStrength != 1 {
		t.Errorf("saturation: %v", ind.SourceStrength)
	}
}

func TestNilRegistry(t *testing.T) {
	c := NewClassifier(nil)
	ref := c.classifyOne("https://good-3.example/story", "excellent-1.example")
	if ref.Class != External || ref.TargetOutlet != "" {
		t.Errorf("nil registry: %+v", ref)
	}
}

func TestRefClassString(t *testing.T) {
	want := map[RefClass]string{
		Internal: "internal", External: "external", Scientific: "scientific",
		RefClass(9): "unknown",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d: %q", c, c.String())
		}
	}
}

func TestRegistrableDomain(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"a.example", "a.example", true},
		{"www.a.example", "a.example", true},
		{"deep.sub.a.example", "a.example", true},
		{"a.example", "b.example", false},
		{"", "a.example", false},
	}
	for _, c := range cases {
		if got := sameRegistrableDomain(c.a, c.b); got != c.want {
			t.Errorf("same(%q,%q) = %v", c.a, c.b, got)
		}
	}
	// registrable keeps the last two dot-separated labels, as splitting
	// on "." and joining the last two did, empty labels included.
	for _, host := range []string{"", ".", "..", "a", "a.b", "A.B.C.", "x.y.z", "a..b", ".b", "b.", "...c", "w.x.y.z."} {
		h := strings.TrimSuffix(strings.ToLower(host), ".")
		want := h
		if parts := strings.Split(h, "."); len(parts) > 2 {
			want = strings.Join(parts[len(parts)-2:], ".")
		}
		if got := registrable(host); got != want {
			t.Errorf("registrable(%q) = %q, want %q", host, got, want)
		}
	}
}
