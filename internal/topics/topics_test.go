package topics

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/synth"
	"repro/internal/textutil"
)

func tagger(t *testing.T) *Tagger {
	t.Helper()
	return NewTagger(DefaultTaxonomy())
}

// tag assigns topics to a whole text: its content-word stems through
// TagStems, the preprocessing a shared textutil.Analysis serves in
// production.
func tag(g *Tagger, text string) []Assignment {
	return g.TagStems(textutil.StemAll(textutil.ContentWords(text)))
}

// hasTopic reports whether tag assigns the named topic to text.
func hasTopic(g *Tagger, text, topic string) bool {
	for _, a := range tag(g, text) {
		if a.Topic == topic {
			return true
		}
	}
	return false
}

func TestNewTaxonomyValidation(t *testing.T) {
	if _, err := NewTaxonomy(nil); !errors.Is(err, ErrNoTopics) {
		t.Errorf("empty: %v", err)
	}
	tax, err := NewTaxonomy([]NamedTopic{{Name: "x", Seeds: []string{"seed"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tax.topics) != 1 {
		t.Error("topics lost")
	}
	for name, list := range map[string][]NamedTopic{
		"unknown parent":   {{Name: "a/b", Parent: "a"}},
		"parent after kid": {{Name: "a/b", Parent: "a"}, {Name: "a"}},
		"parent is itself": {{Name: "a", Parent: "a"}},
	} {
		if _, err := NewTaxonomy(list); err == nil {
			t.Errorf("%s: compiled", name)
		}
	}
}

// TestTagDocAllocations: tagging a document allocates only the
// assignments it returns; parents are resolved once, in NewTaxonomy.
func TestTagDocAllocations(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage counters change what the compiler inlines and keeps on the stack")
	}
	g := tagger(t)
	title := textutil.NewAnalysis("Doctors track the coronavirus outbreak")
	body := textutil.NewAnalysis(`Epidemiologists tracked coronavirus transmission as quarantine
	measures expanded; lawmakers debated the election bill while markets watched inflation.`)
	defer title.Release()
	defer body.Release()
	if tags := g.TagDoc(title, body); len(tags) < 2 {
		t.Fatalf("fixture assigns %v, want a topic and its parent", tags)
	}
	if n := testing.AllocsPerRun(100, func() { g.TagDoc(title, body) }); n != 1 {
		t.Errorf("TagDoc allocates %v times per document, want 1 (the result)", n)
	}
}

func TestNewTaxonomyTopicLimit(t *testing.T) {
	list := make([]NamedTopic, maxTopics+1)
	for i := range list {
		list[i] = NamedTopic{Name: fmt.Sprint("t", i), Seeds: []string{fmt.Sprint("seed", i)}}
	}
	if _, err := NewTaxonomy(list); err == nil {
		t.Fatalf("a taxonomy of %d topics compiled", len(list))
	}
	if _, err := NewTaxonomy(list[:maxTopics]); err != nil {
		t.Fatalf("%d topics: %v", maxTopics, err)
	}
}

// TestTagDocMatchesTagStems: counting seed hits once per distinct form of
// the title and body analyses assigns what counting them once per
// content word does, probabilities bit for bit.
func TestTagDocMatchesTagStems(t *testing.T) {
	g := tagger(t)
	w := synth.GenerateWorld(synth.Config{Seed: 9, Days: 4, RateScale: 0.3})
	for _, a := range w.Articles {
		title, body := textutil.NewAnalysis(a.Title), textutil.NewAnalysis(a.RawHTML)
		got := g.TagDoc(title, body)
		want := tag(g, a.Title+" "+a.RawHTML)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: TagDoc %v, TagStems %v", a.ID, got, want)
		}
		title.Release()
		body.Release()
	}
}

func TestTagCovidArticle(t *testing.T) {
	g := tagger(t)
	text := `Epidemiologists tracked coronavirus transmission as quarantine
	measures expanded. Hospital admissions rose while testing for the virus
	continued across wards during the pandemic.`
	tags := tag(g, text)
	if len(tags) == 0 {
		t.Fatal("no tags")
	}
	found := map[string]float64{}
	for _, a := range tags {
		found[a.Topic] = a.Prob
	}
	if found["health/covid-19"] == 0 {
		t.Errorf("covid topic missing: %v", tags)
	}
	// Parent propagated: generic Health must also be assigned.
	if found["health"] < found["health/covid-19"] {
		t.Errorf("parent propagation: %v", tags)
	}
}

func TestTagGenericHealthNotCovid(t *testing.T) {
	g := tagger(t)
	text := `Cardiologists linked diet and heart disease in a clinical
	screening study of patients; doctors recommend sleep and exercise.`
	tags := tag(g, text)
	found := map[string]bool{}
	for _, a := range tags {
		found[a.Topic] = true
	}
	if !found["health"] {
		t.Errorf("health missing: %v", tags)
	}
	if found["health/covid-19"] {
		t.Errorf("covid over-assigned: %v", tags)
	}
}

func TestTagMultipleTopics(t *testing.T) {
	g := tagger(t)
	text := `Lawmakers debated the election bill while markets and investors
	watched inflation data; the committee vote moved stock trade.`
	tags := tag(g, text)
	found := map[string]bool{}
	for _, a := range tags {
		found[a.Topic] = true
	}
	if !found["politics"] || !found["economy"] {
		t.Errorf("multi-topic assignment failed: %v", tags)
	}
}

func TestTagNoSeeds(t *testing.T) {
	g := tagger(t)
	if tags := tag(g, "completely unrelated blether about gardening petunias"); len(tags) != 0 {
		t.Errorf("unrelated text tagged: %v", tags)
	}
	if tags := tag(g, ""); len(tags) != 0 {
		t.Errorf("empty text tagged: %v", tags)
	}
}

func TestTagOrderingAndBounds(t *testing.T) {
	g := tagger(t)
	text := `Coronavirus quarantine pandemic outbreak transmission infection
	mask lockdown respiratory epidemiologist virus vaccine hospital`
	tags := tag(g, text)
	var total float64
	for i, a := range tags {
		if a.Prob <= 0 || a.Prob > 1 {
			t.Fatalf("prob out of range: %+v", a)
		}
		if i > 0 && tags[i-1].Prob < a.Prob {
			t.Fatal("not sorted by prob")
		}
		total += a.Prob
	}
	_ = total // parents duplicate child mass; no sum constraint
}

func TestHasTopic(t *testing.T) {
	g := tagger(t)
	text := "coronavirus quarantine pandemic outbreak hospital virus"
	if !hasTopic(g, text, "health/covid-19") {
		t.Error("covid topic not assigned")
	}
	if hasTopic(g, text, "economy") {
		t.Error("economy topic false positive")
	}
}

func TestTagSyntheticCorpusAccuracy(t *testing.T) {
	// The tagger must recover the generator's ground-truth COVID label
	// with high agreement — this is the mechanism behind Figure 4.
	w := synth.GenerateWorld(synth.Config{Seed: 9, Days: 15, RateScale: 0.4})
	g := tagger(t)
	tp, fp, fn, tn := 0, 0, 0, 0
	for _, a := range w.Articles {
		// Tag on title+body ground truth text (platform tags extracted
		// text; synth_test already proves extraction fidelity).
		text := a.Title + " " + a.RawHTML
		got := hasTopic(g, text, "health/covid-19")
		want := a.Topic == synth.TopicCovid
		switch {
		case got && want:
			tp++
		case got && !want:
			fp++
		case !got && want:
			fn++
		default:
			tn++
		}
	}
	precision := float64(tp) / float64(tp+fp)
	recall := float64(tp) / float64(tp+fn)
	if precision < 0.9 {
		t.Errorf("covid precision: %v (tp=%d fp=%d)", precision, tp, fp)
	}
	if recall < 0.9 {
		t.Errorf("covid recall: %v (tp=%d fn=%d)", recall, tp, fn)
	}
}

func TestDiscoverHierarchy(t *testing.T) {
	// Unsupervised discovery on three artificial vocabularies.
	rng := rand.New(rand.NewSource(10))
	vocabs := [][]string{
		{"virus", "vaccine", "pandemic", "quarantine", "mask"},
		{"market", "inflation", "stocks", "trade", "bank"},
		{"election", "vote", "bill", "parliament", "coalition"},
	}
	var docs [][]string
	for i := 0; i < 90; i++ {
		v := vocabs[i%3]
		doc := make([]string, 8)
		for j := range doc {
			doc[j] = v[rng.Intn(len(v))]
		}
		docs = append(docs, doc)
	}
	root, tfidf, err := Discover(docs, cluster.HierarchyConfig{Branch: 3, MaxDepth: 1, MinLeaf: 5, Seed: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if root.IsLeaf() {
		t.Fatal("no split")
	}
	if len(tfidf.IDF) != 15 {
		t.Errorf("vocab: %d", len(tfidf.IDF))
	}
	// New covid-vocab doc lands on the cluster holding covid docs.
	probe := tfidf.Transform([]string{"virus", "vaccine", "mask"})
	assignments := cluster.Assign(root, probe, 0.1, 0.2)
	if len(assignments) == 0 {
		t.Fatal("no assignment")
	}
	best := assignments[0]
	counts := 0
	for _, m := range best.Node.Members {
		if m%3 == 0 { // covid docs are every third
			counts++
		}
	}
	if counts*2 < len(best.Node.Members) {
		t.Errorf("probe landed on non-covid cluster (%d of %d)", counts, len(best.Node.Members))
	}
	if _, _, err := Discover(nil, cluster.HierarchyConfig{}, 1); err == nil {
		t.Error("empty corpus should fail")
	}
}
