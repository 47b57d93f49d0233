// Package topics implements the content-based segmentation of paper §3.3:
// "the system performs a probabilistic hierarchical clustering on the
// articles and assigns one or more topics to each one of them. These
// topics can be very generic (e.g., Health) or very specific (e.g.,
// COVID-19)."
//
// Two complementary mechanisms are provided, matching the paper's
// "supervised topics" wording:
//
//   - A seed-keyword taxonomy (Taxonomy/Tagger): named topics arranged in a
//     generic→specific tree, each with seed vocabulary; articles receive
//     every topic whose probability clears a threshold, and parents of
//     assigned topics are assigned transitively.
//   - An unsupervised hierarchy (Discover): divisive spherical k-means over
//     TF-IDF vectors (internal/cluster) for exploring segments without
//     seeds.
package topics

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/cluster"
	"repro/internal/mlcore"
	"repro/internal/textutil"
)

// ErrNoTopics is returned when a taxonomy has no topics.
var ErrNoTopics = errors.New("topics: empty taxonomy")

// NamedTopic is one node of the supervised taxonomy.
type NamedTopic struct {
	// Name is the topic identifier ("health", "health/covid-19").
	Name string
	// Parent is the parent topic name ("" for roots).
	Parent string
	// Seeds are the seed keywords (stemmed internally).
	Seeds []string
}

// maxTopics is the most topics a taxonomy holds: one bit each in a
// seed's topic mask.
const maxTopics = 64

// Taxonomy is a set of named topics forming a forest.
type Taxonomy struct {
	topics []NamedTopic
	// parent is the index of each topic's parent, -1 for a root.
	parent []int
	// seeds maps a stemmed seed to the topics it seeds: bit i is topic i.
	seeds map[string]uint64
}

// NewTaxonomy validates and compiles a taxonomy. A topic's parent is
// listed before it.
func NewTaxonomy(list []NamedTopic) (*Taxonomy, error) {
	if len(list) == 0 {
		return nil, ErrNoTopics
	}
	if len(list) > maxTopics {
		return nil, fmt.Errorf("topics: %d topics, at most %d", len(list), maxTopics)
	}
	t := &Taxonomy{
		topics: append([]NamedTopic(nil), list...),
		parent: make([]int, len(list)),
		seeds:  make(map[string]uint64),
	}
	index := make(map[string]int, len(list))
	for i, topic := range t.topics {
		t.parent[i] = -1
		if topic.Parent != "" {
			p, ok := index[topic.Parent]
			if !ok {
				return nil, fmt.Errorf("topics: %q: parent %q is not listed before it", topic.Name, topic.Parent)
			}
			t.parent[i] = p
		}
		index[topic.Name] = i
		for _, s := range topic.Seeds {
			t.seeds[textutil.Stem(s)] |= 1 << i
		}
	}
	return t, nil
}

// DefaultTaxonomy is the demo taxonomy: four generic topics plus the
// COVID-19 refinement under health, mirroring the paper's Health →
// COVID-19 example.
func DefaultTaxonomy() *Taxonomy {
	t, err := NewTaxonomy([]NamedTopic{
		{Name: "health", Seeds: []string{
			"health", "doctor", "disease", "patient", "hospital", "diet",
			"heart", "cancer", "sleep", "clinical", "screening", "drug",
			"virus", "vaccine", "nutritionist", "cardiologist",
		}},
		{Name: "health/covid-19", Parent: "health", Seeds: []string{
			"covid", "coronavirus", "pandemic", "outbreak", "quarantine",
			"transmission", "epidemiologist", "asymptomatic", "incubation",
			"infection", "mask", "lockdown", "virologist", "containment",
			"respiratory",
		}},
		{Name: "politics", Seeds: []string{
			"lawmaker", "parliament", "election", "bill", "vote", "minister",
			"committee", "coalition", "referendum", "legislation", "inquiry",
			"opposition",
		}},
		{Name: "economy", Seeds: []string{
			"market", "inflation", "economy", "investor", "unemployment",
			"trade", "growth", "stock", "bank", "earnings", "macroeconomic",
			"liquidity",
		}},
		{Name: "technology", Seeds: []string{
			"software", "startup", "platform", "cloud", "chip", "developer",
			"breach", "privacy", "framework", "cryptography", "vulnerability",
			"infrastructure",
		}},
	})
	if err != nil {
		panic(err) // static taxonomy; cannot fail
	}
	return t
}

// Assignment is one assigned topic with its probability.
type Assignment struct {
	// Topic is the assigned topic name.
	Topic string
	// Prob is the soft-assignment probability.
	Prob float64
}

// Tagger assigns taxonomy topics to documents.
type Tagger struct {
	tax *Taxonomy
}

const (
	// tagThreshold is the minimum probability for assignment.
	tagThreshold = 0.15
	// tagTau is the softmax temperature over seed-overlap scores.
	tagTau = 0.08
)

// NewTagger builds a tagger over the taxonomy.
func NewTagger(tax *Taxonomy) *Tagger {
	return &Tagger{tax: tax}
}

// seedHits adds count to hits[i] for every topic i that stem seeds.
func (g *Tagger) seedHits(hits *[maxTopics]int, stem string, count int) {
	for m := g.tax.seeds[stem]; m != 0; m &= m - 1 {
		hits[bits.TrailingZeros64(m)] += count
	}
}

// TagStems assigns topics to a document given its preprocessed content-word
// stems (stop words removed, Porter-stemmed), one per word.
func (g *Tagger) TagStems(stems []string) []Assignment {
	var hits [maxTopics]int
	for _, s := range stems {
		g.seedHits(&hits, s, 1)
	}
	return g.assign(&hits, len(stems))
}

// TagDoc assigns topics to a document from the shared analyses of its
// title and body: what TagStems gives for their content-word stems,
// counted once per distinct form.
func (g *Tagger) TagDoc(title, body *textutil.Analysis) []Assignment {
	var hits [maxTopics]int
	words := 0
	for _, a := range [2]*textutil.Analysis{title, body} {
		for i := range a.Forms {
			if f := &a.Forms[i]; !f.Stop {
				words += f.Count
				g.seedHits(&hits, f.Stem, f.Count)
			}
		}
	}
	return g.assign(&hits, words)
}

// assign turns seed hits into topic assignments. A topic's seed-overlap
// score is its hits per content word of the document.
func (g *Tagger) assign(hits *[maxTopics]int, words int) []Assignment {
	topics := g.tax.topics
	var raw, exps, probs [maxTopics]float64
	maxScore := 0.0
	if words > 0 {
		for i := range topics {
			raw[i] = float64(hits[i]) / float64(words)
			maxScore = max(maxScore, raw[i])
		}
	}
	// Softmax including an implicit "none" topic with score 0 so documents
	// with no seed hits at all spread probability onto nothing.
	if maxScore == 0 {
		return nil
	}
	var z float64
	for i := range topics {
		exps[i] = math.Exp((raw[i] - maxScore) / tagTau)
		z += exps[i]
	}
	z += math.Exp((0 - maxScore) / tagTau) // the "none" mass

	// An assigned topic lends its probability to its ancestors.
	n := 0
	for i := range topics {
		if p := exps[i] / z; raw[i] > 0 && p >= tagThreshold {
			for j := i; j >= 0; j = g.tax.parent[j] {
				if probs[j] == 0 {
					n++
				}
				probs[j] = max(probs[j], p)
			}
		}
	}
	out := make([]Assignment, 0, n)
	for i, p := range probs[:len(topics)] {
		if p > 0 {
			out = append(out, Assignment{Topic: topics[i].Name, Prob: p})
		}
	}
	slices.SortFunc(out, func(a, b Assignment) int {
		if a.Prob != b.Prob {
			return cmp.Compare(b.Prob, a.Prob)
		}
		return strings.Compare(a.Topic, b.Topic)
	})
	return out
}

// Discover builds an unsupervised topic hierarchy over tokenised documents
// and returns the tree plus the fitted vectoriser for assigning new
// documents (cluster.Assign).
func Discover(docs [][]string, cfg cluster.HierarchyConfig, minDF int) (*cluster.TopicNode, *mlcore.TFIDF, error) {
	tfidf := mlcore.FitTFIDF(docs, minDF)
	vectors := tfidf.TransformAll(docs)
	root, err := cluster.BuildHierarchy(vectors, cfg)
	if err != nil {
		return nil, nil, err
	}
	return root, tfidf, nil
}
