package topics

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/textutil"
)

// hierarchyCorpus builds a two-theme corpus: virology documents and
// finance documents with disjoint vocabulary, so the bisecting split has
// an unambiguous structure to find.
func hierarchyCorpus(n int, seed int64) ([][]string, []int) {
	virus := []string{"virus", "vaccine", "infection", "epidemic", "antibody", "patient", "clinical", "trial"}
	finance := []string{"market", "stock", "interest", "inflation", "bond", "earnings", "investor", "dividend"}
	rng := rand.New(rand.NewSource(seed))
	docs := make([][]string, 0, n)
	themes := make([]int, 0, n)
	for i := 0; i < n; i++ {
		vocab := virus
		theme := 0
		if i%2 == 1 {
			vocab = finance
			theme = 1
		}
		doc := make([]string, 0, 12)
		for j := 0; j < 12; j++ {
			doc = append(doc, textutil.Stem(vocab[rng.Intn(len(vocab))]))
		}
		docs = append(docs, doc)
		themes = append(themes, theme)
	}
	return docs, themes
}

// discoverTagger runs Discover and wraps the result in a HierarchyTagger,
// as the warehouse's topic-model job does.
func discoverTagger(docs [][]string, cfg cluster.HierarchyConfig, minDF int) (*HierarchyTagger, error) {
	root, tfidf, err := Discover(docs, cfg, minDF)
	if err != nil {
		return nil, err
	}
	return NewHierarchyTagger(root, tfidf), nil
}

func TestDiscoverTaggerSeparatesThemes(t *testing.T) {
	docs, _ := hierarchyCorpus(200, 1)
	tagger, err := discoverTagger(docs, cluster.HierarchyConfig{Branch: 2, MaxDepth: 2, MinLeaf: 10, Seed: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}

	virusTags := tagger.Tag("new vaccine trial shows antibody response in patients")
	financeTags := tagger.Tag("stock market rallies as inflation cools and earnings beat")
	if len(virusTags) == 0 || len(financeTags) == 0 {
		t.Fatalf("no assignments: %v %v", virusTags, financeTags)
	}
	if virusTags[0].NodeID == financeTags[0].NodeID {
		t.Errorf("themes not separated: %v vs %v", virusTags[0], financeTags[0])
	}
	// Labels should reflect the themes' vocabularies.
	if !containsAny(virusTags[0].Label, []string{"virus", "vaccin", "infect", "antibodi", "patient", "clinic", "trial", "epidem"}) {
		t.Errorf("virus label: %q", virusTags[0].Label)
	}
	if !containsAny(financeTags[0].Label, []string{"market", "stock", "interest", "inflat", "bond", "earn", "investor", "dividend"}) {
		t.Errorf("finance label: %q", financeTags[0].Label)
	}
}

func containsAny(s string, subs []string) bool {
	for _, sub := range subs {
		if strings.Contains(s, sub) {
			return true
		}
	}
	return false
}

func TestHierarchyTaggerProbabilitiesOrderedAndBounded(t *testing.T) {
	docs, _ := hierarchyCorpus(200, 2)
	tagger, err := discoverTagger(docs, cluster.HierarchyConfig{Branch: 2, MaxDepth: 3, MinLeaf: 8, Seed: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	tags := tagger.Tag("vaccine infection clinical epidemic")
	for i, a := range tags {
		if a.Prob <= 0 || a.Prob > 1+1e-9 {
			t.Errorf("prob out of range: %+v", a)
		}
		if i > 0 && tags[i-1].Prob < a.Prob {
			t.Errorf("not sorted: %v before %v", tags[i-1], a)
		}
		if a.Depth == 0 || a.NodeID == "root" {
			t.Errorf("root reported: %+v", a)
		}
		if a.Label == "" {
			t.Errorf("unlabelled node: %+v", a)
		}
	}
}

func TestHierarchyTaggerUnknownVocabulary(t *testing.T) {
	docs, _ := hierarchyCorpus(100, 3)
	tagger, err := discoverTagger(docs, cluster.HierarchyConfig{Branch: 2, MaxDepth: 2, MinLeaf: 10, Seed: 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tags := tagger.Tag("zzz qqq completely foreign words"); len(tags) != 0 {
		t.Errorf("foreign vocabulary should not be assigned: %v", tags)
	}
	if tags := tagger.Tag(""); len(tags) != 0 {
		t.Errorf("empty document: %v", tags)
	}
}

func TestHierarchyTaggerLabels(t *testing.T) {
	docs, _ := hierarchyCorpus(100, 4)
	root, tfidf, err := Discover(docs, cluster.HierarchyConfig{Branch: 2, MaxDepth: 2, MinLeaf: 10, Seed: 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	tagger := NewHierarchyTagger(root, tfidf)
	if got := tagger.Label(root.ID); got != "all" {
		t.Errorf("root label: %q", got)
	}
	for _, leaf := range cluster.Leaves(root) {
		if tagger.Label(leaf.ID) == "" {
			t.Errorf("leaf %s unlabelled", leaf.ID)
		}
	}
	if tagger.Label("no-such-node") != "" {
		t.Error("unknown node should have empty label")
	}
}

func TestDiscoverTaggerEmptyCorpus(t *testing.T) {
	if _, err := discoverTagger(nil, cluster.HierarchyConfig{}, 1); err == nil {
		t.Error("empty corpus should fail")
	}
}
