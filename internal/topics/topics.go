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
	"errors"
	"math"
	"sort"

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

// Taxonomy is a set of named topics forming a forest.
type Taxonomy struct {
	topics  []NamedTopic
	seedSet []map[string]struct{} // stemmed seeds per topic
}

// NewTaxonomy validates and compiles a taxonomy.
func NewTaxonomy(list []NamedTopic) (*Taxonomy, error) {
	if len(list) == 0 {
		return nil, ErrNoTopics
	}
	t := &Taxonomy{topics: append([]NamedTopic(nil), list...)}
	for _, topic := range t.topics {
		set := make(map[string]struct{}, len(topic.Seeds))
		for _, s := range topic.Seeds {
			set[textutil.Stem(s)] = struct{}{}
		}
		t.seedSet = append(t.seedSet, set)
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
	// Threshold is the minimum probability for assignment (default 0.15).
	Threshold float64
	// Tau is the softmax temperature over seed-overlap scores (default
	// 0.08).
	Tau float64

	tax *Taxonomy
}

// NewTagger builds a tagger over the taxonomy.
func NewTagger(tax *Taxonomy) *Tagger {
	return &Tagger{Threshold: 0.15, Tau: 0.08, tax: tax}
}

// scores computes the seed-overlap score per topic: matched seed stems per
// document token, smoothed.
func (g *Tagger) scores(stems []string) []float64 {
	out := make([]float64, len(g.tax.topics))
	if len(stems) == 0 {
		return out
	}
	for i, set := range g.tax.seedSet {
		hits := 0
		for _, s := range stems {
			if _, ok := set[s]; ok {
				hits++
			}
		}
		out[i] = float64(hits) / float64(len(stems))
	}
	return out
}

// TagStems assigns topics to a document given its preprocessed content-word
// stems (stop words removed, Porter-stemmed) — the entry point for callers
// holding a shared textutil.Analysis, which produces exactly that stream.
func (g *Tagger) TagStems(stems []string) []Assignment {
	raw := g.scores(stems)
	// Softmax including an implicit "none" topic with score 0 so documents
	// with no seed hits at all spread probability onto nothing.
	maxScore := 0.0
	for _, s := range raw {
		if s > maxScore {
			maxScore = s
		}
	}
	if maxScore == 0 {
		return nil
	}
	var z float64
	exps := make([]float64, len(raw))
	for i, s := range raw {
		exps[i] = math.Exp((s - maxScore) / g.Tau)
		z += exps[i]
	}
	z += math.Exp((0 - maxScore) / g.Tau) // the "none" mass

	probs := make(map[string]float64)
	for i, topic := range g.tax.topics {
		p := exps[i] / z
		if raw[i] > 0 && p >= g.Threshold {
			probs[topic.Name] = p
		}
	}
	// Propagate to parents.
	byName := make(map[string]NamedTopic, len(g.tax.topics))
	for _, tp := range g.tax.topics {
		byName[tp.Name] = tp
	}
	for name, p := range probs {
		cur := byName[name].Parent
		for cur != "" {
			if probs[cur] < p {
				probs[cur] = p
			}
			cur = byName[cur].Parent
		}
	}
	out := make([]Assignment, 0, len(probs))
	for name, p := range probs {
		out = append(out, Assignment{Topic: name, Prob: p})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Prob != out[j].Prob {
			return out[i].Prob > out[j].Prob
		}
		return out[i].Topic < out[j].Topic
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
